"""Discrete globally convergent solvers built on the descent field.

Two variants, both for inequality-only problems (equality-constrained
problems are reduced first):

* ``solve_t31`` -- backtracking Euler steps with an inexact projection
  onto the constraints at risk of activation along the step.
* ``solve_r35`` -- curvature-estimating step selection; each rejection
  inflates the curvature estimates instead of halving the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exprlang import evaluate, grad, jvp
from .field import FieldError, field_eval
from .kkt import kkt_residual, multipliers
from .model import is_feasible

# Accepted iterates must satisfy max_j g_j <= this bound.
FEAS_TOL = 1e-10
# Backtracking floor (fraction of r) and curvature-increment cap; both
# convert theoretical non-termination into diagnosable failures.
STEP_FLOOR = 1e-14
K_INCREMENT_CAP = 10 ** 6
# Step-bound slack: the per-constraint quadratic model is solved to the
# level BETA instead of 0 so an iterate sitting on a facet keeps room to
# move along it; landings stay within FEAS_TOL of feasibility.
BETA = 0.5 * FEAS_TOL
# Candidates whose constraint values fall inside the snap band are pulled
# back onto the exact facet (Newton on g_j = 0) before being tested.
SNAP_BAND = 2.0 * FEAS_TOL
# Curvature-scan controls: number of segments per scan, refinement passes,
# and the factor by which a scan span must cover the proposed step.
CURV_SEGMENTS = 8
CURV_REFINEMENTS = 4
SPAN_COVER = 1.5
SPAN_FLOOR = 1e-8


class SolveError(RuntimeError):
    pass


class ProjectionFailure(SolveError):
    """Inner projection hit its iteration cap without reaching feasibility."""


@dataclass
class SolveConfig:
    algorithm: str = "r35"  # "t31" or "r35"
    r: float = 1.0
    epsilon: float = 1e-6
    armijo: float = 0.1
    max_iter: int = 200
    stop_tol: float = 1e-9
    projection_max_inner: int = 100
    seed: int = 0

    def validate(self):
        if self.algorithm not in ("t31", "r35"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.r <= 0 or self.epsilon <= 0 or self.max_iter < 1:
            raise ValueError("require r > 0, epsilon > 0, max_iter >= 1")
        if self.algorithm == "t31":
            if not self.epsilon < self.r:
                raise ValueError("t31 requires epsilon < r")
            if not 0 < self.armijo < 1:
                raise ValueError("t31 requires armijo in (0, 1)")
        else:
            if not 0 < self.armijo <= 0.5:
                raise ValueError("r35 requires armijo in (0, 1/2]")


@dataclass
class IterateRecord:
    x: np.ndarray
    theta: float
    normF: float
    dtheta_F: float
    step: float = 0.0  # accepted step taken *from* this iterate
    backtracks: int = 0
    proj_used: bool = False
    active_set: tuple = ()


@dataclass
class SolveReport:
    records: list = field(default_factory=list)
    termination: str = ""  # critical | max_iter | field_failure | inner_cap
    diagnostic: str = ""
    kkt: object = None

    @property
    def iterations(self):
        return len(self.records) - 1

    @property
    def final_x(self):
        return self.records[-1].x


def active_index_set(p, fe, x, epsilon, n_samples=9):
    """Indices whose constraint may rise above -epsilon along the Euler ray.

    The continuous max over s in [0, epsilon] is over-approximated by
    sampling g_j at ``n_samples`` equally spaced points and inflating by
    half epsilon^2 times a second-difference curvature estimate.
    """
    F = fe.F
    ss = np.linspace(0.0, epsilon, n_samples)
    ds = ss[1] - ss[0]
    out = []
    for j, gexpr in enumerate(p.inequalities):
        vals = np.array([evaluate(gexpr, x + s * F) for s in ss])
        khat = float(np.max(np.maximum(0.0, np.diff(vals, 2) / ds ** 2))) if len(vals) > 2 else 0.0
        if np.max(vals) + 0.5 * epsilon ** 2 * khat > -epsilon:
            out.append(j)
    return tuple(out)


def project_inexact(target, p, indices, max_inner=100, C=1.0):
    """Approximate nearest point with g_j <= 0 for the selected indices.

    Alternates first-order projections onto the most violated
    constraint's linearization until max_j g_j <= FEAS_TOL.  Returns the
    point and the achieved/lower-bound distance ratio (the inexactness
    factor is reported, never enforced).
    """
    if not indices:
        raise ValueError("projection needs a non-empty index set")
    target = np.asarray(target, dtype=float)
    exprs = [p.inequalities[j] for j in indices]

    gvals0 = np.array([evaluate(e, target) for e in exprs])
    lower = 0.0
    for e, gv in zip(exprs, gvals0):
        if gv > 0:
            gn = np.linalg.norm(grad(e, target))
            if gn > 0:
                lower = max(lower, gv / gn)

    y = target.copy()
    for _ in range(max_inner):
        gvals = np.array([evaluate(e, y) for e in exprs])
        jm = int(np.argmax(gvals))
        if gvals[jm] <= FEAS_TOL:
            dist = float(np.linalg.norm(y - target))
            quality = dist / lower if lower > 0 else 1.0
            return y, quality
        gj = np.asarray(grad(exprs[jm], y), dtype=float)
        nrm2 = float(gj @ gj)
        if nrm2 == 0.0:
            raise ProjectionFailure("zero constraint gradient during projection")
        y = y - (gvals[jm] / nrm2) * gj
    raise ProjectionFailure(f"projection did not reach feasibility in {max_inner} steps")


def curvature_estimates(p, fe, x, r, epsilon):
    """Initial curvature bounds from one extra evaluation at x + r F."""
    xr = np.asarray(x, dtype=float) + r * fe.F
    dgF = fe.B @ fe.F if p.k else np.zeros(0)
    K = np.empty(p.k)
    for j, gexpr in enumerate(p.inequalities):
        K[j] = max(epsilon, 2.0 / r ** 2 * (evaluate(gexpr, xr) - fe.g[j] - r * dgF[j]))
    K_theta = max(epsilon,
                  2.0 / r ** 2 * (evaluate(p.objective, xr) - fe.theta - r * fe.dtheta_F))
    return K, K_theta


def _curvature_scan(p, fe, x, span):
    """Curvature bounds for g_j and theta along F over [0, span].

    Samples the exact directional derivative along F at CURV_SEGMENTS+1
    equally spaced points, each from one tangent sweep of the
    expression's tape seeded with F (``jvp``) rather than a full gradient
    dotted with F.  The largest forward difference of these slopes
    bounds the second derivative on the sampled interval, while the
    end-to-end chord gives its average; the estimate is their mean.
    The worst-case bound alone over-throttles
    steps along strongly curved facets, and the average alone can
    underestimate badly enough to exhaust the rejection loop, so the
    blend trades a few rejections for steps of useful length.

    Differencing first derivatives rather than function values keeps the
    estimate conditioned at small spans: value second differences drown
    in rounding noise (noise/ds^2 diverges as the span shrinks), which
    would collapse the span refinement near critical points where theta
    varies by less than one ulp.

    Floored at zero, not epsilon: a positive floor makes the step bound
    for a tangentially approached facet collapse like sqrt(|g_j|) and the
    iteration crawl, while inner-loop termination is already guaranteed
    by the rejection increments.
    """
    x = np.asarray(x, dtype=float)
    ss = np.linspace(0.0, span, CURV_SEGMENTS + 1)
    ds = span / CURV_SEGMENTS

    def kest(expr):
        slopes = [jvp(expr, x + s * fe.F, fe.F) for s in ss]
        worst = float(np.max(np.diff(slopes))) / ds
        chord = (slopes[-1] - slopes[0]) / span
        return max(0.0, 0.5 * (worst + chord))

    K_theta = kest(p.objective)
    K = np.array([kest(e) for e in p.inequalities]) if p.k else np.zeros(0)
    return K, K_theta


def _dgF_identity(fe):
    """Directional derivative of g along F via the structural identity.

    Computed as g_j*omega_j - r3_j*v_j^+ rather than the raw dot product:
    on a facet the identity yields an exact zero where the dot product
    leaves rounding noise of arbitrary sign, which can stall the step
    selection permanently.
    """
    return fe.g * fe.omega - fe.r3 * fe.vplus


def _step_bound(fe, dgF, K, K_theta, r):
    """Largest step the quadratic models allow, with BETA facet slack.

    Per constraint this is the positive root of K/2 s^2 + a s + (g-BETA),
    evaluated in the cancellation-free form -2(g-BETA)/(a + sqrt(...));
    a non-positive denominator means the model never reaches the level
    and the bound is r.
    """
    s = r if K_theta <= 0.0 else min(r, abs(fe.dtheta_F) / K_theta)
    for j in range(len(K)):
        a = dgF[j]
        g = fe.g[j] - BETA
        den = a + np.sqrt(max(a * a - 2.0 * K[j] * g, 0.0))
        if den > 0.0:
            s = min(s, max(0.0, -2.0 * g / den))
    return s


def _snap_to_facets(p, y, band=SNAP_BAND, sweeps=3):
    """Pull constraints inside the band back onto their exact facets.

    One Newton step per near-active constraint per sweep; dissolves the
    O(1e-16) landing noise that otherwise accumulates against the
    feasibility ceiling while riding an active facet.
    """
    moved_any = False
    for _ in range(sweeps):
        moved = False
        for gexpr in p.inequalities:
            gj = evaluate(gexpr, y)
            if -band <= gj <= band and gj != 0.0:
                gr = np.asarray(grad(gexpr, y), dtype=float)
                nrm2 = float(gr @ gr)
                if nrm2 > 0.0:
                    y = y - (gj / nrm2) * gr
                    moved = moved_any = True
        if not moved:
            break
    return y, moved_any


def _check_inequality_only(p):
    if p.m != 0:
        raise SolveError("solver requires an inequality-only problem; "
                         "reduce equality-constrained problems first")


def _max_g(p, x):
    if p.k == 0:
        return 0.0
    return max(evaluate(e, x) for e in p.inequalities)


def _start_report(p, params, cfg, x0):
    cfg.validate()
    _check_inequality_only(p)
    x0 = np.asarray(x0, dtype=float)
    if not is_feasible(p, x0, 1e-8):
        raise SolveError("initial point is infeasible")
    return x0


def _finish(p, params, report):
    x = report.final_x
    try:
        fe = field_eval(p, params, x)
        lam, mu = multipliers(p, x, fe)
        report.kkt = kkt_residual(p, x, lam, mu)
    except FieldError:
        pass
    return report


def solve_t31(p, params, cfg, x0):
    """Backtracking Euler with projection onto the at-risk constraints."""
    x = _start_report(p, params, cfg, x0)
    report = SolveReport()
    for _ in range(cfg.max_iter):
        try:
            fe = field_eval(p, params, x)
        except FieldError as exc:
            report.termination, report.diagnostic = "field_failure", str(exc)
            return _finish(p, params, report)
        rec = IterateRecord(x=x.copy(), theta=fe.theta,
                            normF=float(np.linalg.norm(fe.F)), dtheta_F=fe.dtheta_F)
        report.records.append(rec)
        if rec.normF <= cfg.stop_tol:
            report.termination = "critical"
            return _finish(p, params, report)

        active = active_index_set(p, fe, x, cfg.epsilon)
        rec.active_set = active
        s = cfg.r
        backtracks = 0
        while True:
            candidate = x + s * fe.F
            y, used_proj = candidate, False
            if active:
                try:
                    y, _ = project_inexact(candidate, p, active,
                                           max_inner=cfg.projection_max_inner)
                    used_proj = True
                except ProjectionFailure:
                    y = None
            if y is not None and _max_g(p, y) <= FEAS_TOL:
                theta_y = evaluate(p.objective, y)
                if theta_y <= fe.theta + cfg.armijo * s * fe.dtheta_F:
                    rec.step, rec.backtracks, rec.proj_used = s, backtracks, used_proj
                    x = y
                    break
            s *= 0.5
            backtracks += 1
            if s < STEP_FLOOR * cfg.r:
                report.termination = "field_failure"
                report.diagnostic = "backtracking step fell below the floor"
                return _finish(p, params, report)
    else:
        report.termination = "max_iter"
        try:
            fe = field_eval(p, params, x)
            report.records.append(IterateRecord(
                x=x.copy(), theta=fe.theta,
                normF=float(np.linalg.norm(fe.F)), dtheta_F=fe.dtheta_F))
        except FieldError as exc:
            report.diagnostic = str(exc)
    return _finish(p, params, report)


def solve_r35(p, params, cfg, x0):
    """Curvature-estimated steps; rejections inflate the estimates."""
    x = _start_report(p, params, cfg, x0)
    report = SolveReport()
    for _ in range(cfg.max_iter):
        try:
            fe = field_eval(p, params, x)
        except FieldError as exc:
            report.termination, report.diagnostic = "field_failure", str(exc)
            return _finish(p, params, report)
        rec = IterateRecord(x=x.copy(), theta=fe.theta,
                            normF=float(np.linalg.norm(fe.F)), dtheta_F=fe.dtheta_F)
        report.records.append(rec)
        if rec.normF <= cfg.stop_tol:
            report.termination = "critical"
            return _finish(p, params, report)

        dgF = _dgF_identity(fe) if p.k else np.zeros(0)
        span = cfg.r
        K, K_theta = _curvature_scan(p, fe, x, span)
        s = _step_bound(fe, dgF, K, K_theta, cfg.r)
        # Refine the scan span toward the step actually proposed so the
        # quadratic models are local; a whole-ray scan can overestimate
        # curvature by orders of magnitude and stall the iteration.
        for _ in range(CURV_REFINEMENTS):
            new_span = min(cfg.r, max(SPAN_COVER * s, SPAN_FLOOR))
            if new_span >= 0.9 * span:
                break
            span = new_span
            K, K_theta = _curvature_scan(p, fe, x, span)
            s = _step_bound(fe, dgF, K, K_theta, cfg.r)
        # Never step beyond the interval the models were sampled on.
        s = min(s, span)

        # Near a minimizer the required decrease drops below one ulp of
        # theta, where the sufficient-decrease test cannot be certified
        # in double precision; allow rounding-level noise so the
        # iteration can close the final |F| gap instead of stalling.
        noise = 16.0 * np.finfo(float).eps * (1.0 + abs(fe.theta))
        increments = 0
        while True:
            candidate, snapped = _snap_to_facets(p, x + s * fe.F)
            if _max_g(p, candidate) <= FEAS_TOL:
                theta_c = evaluate(p.objective, candidate)
                if theta_c <= fe.theta + cfg.armijo * s * fe.dtheta_F + noise:
                    rec.step, rec.backtracks, rec.proj_used = s, increments, snapped
                    x = candidate
                    break
            K = K + cfg.epsilon
            K_theta += cfg.epsilon
            increments += 1
            s = _step_bound(fe, dgF, K, K_theta, cfg.r)
            if increments > K_INCREMENT_CAP:
                worst = int(np.argmax([evaluate(e, candidate)
                                       for e in p.inequalities])) if p.k else -1
                report.termination = "inner_cap"
                report.diagnostic = (f"curvature increments exhausted; most "
                                     f"violated constraint index {worst}")
                return _finish(p, params, report)
    else:
        report.termination = "max_iter"
        try:
            fe = field_eval(p, params, x)
            report.records.append(IterateRecord(
                x=x.copy(), theta=fe.theta,
                normF=float(np.linalg.norm(fe.F)), dtheta_F=fe.dtheta_F))
        except FieldError as exc:
            report.diagnostic = str(exc)
    return _finish(p, params, report)


def solve(p, params, cfg, x0):
    """Dispatch on cfg.algorithm."""
    if cfg.algorithm == "t31":
        return solve_t31(p, params, cfg, x0)
    return solve_r35(p, params, cfg, x0)
