"""Discrete globally convergent solvers built on the descent field.

One outer loop, ``solve``, for inequality-only problems (equality-constrained
problems are reduced first).  At each iterate it evaluates the field,
records it and stops once |F| falls to ``stop_tol`` or after ``max_iter``
steps; the KKT residuals of the last iterate go into the report.  How
far to move along F is left to one of two step policies, selected by
``SolveConfig.algorithm``:

* ``t31`` -- backtracking Euler steps with an inexact projection onto
  the constraints at risk of activation along the step.
* ``r35`` -- curvature-estimating step selection; each rejection
  inflates the curvature estimates, by an increment that doubles from
  one rejection to the next, instead of halving the step.

A policy returns the accepted point, or raises ``_Stop`` to end the
solve with a termination and a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exprlang import evaluate, evaluate_stack, grad, jvp_stack
from .field import FieldError, field_eval, norms
from .kkt import report_at
from .model import FEAS_TOL, FIELD_FEAS_TOL, is_feasible

# Backtracking floor (fraction of r) and the cap on r35's rejections,
# whose curvature increments double each time (epsilon * 2^i on rejection
# i); both convert theoretical non-termination into diagnosable failures.
# Past 64 doublings the increment dwarfs any finite curvature.
STEP_FLOOR = 1e-14
MAX_DOUBLINGS = 64
# Step-bound slack: the per-constraint quadratic model is solved to the
# level BETA instead of 0 so an iterate sitting on a facet keeps room to
# move along it; landings stay within FEAS_TOL of feasibility.
BETA = 0.5 * FEAS_TOL
# Candidates whose constraint values fall inside the snap band are pulled
# back onto the exact facet (Newton on g_j = 0) before being tested, in
# at most SNAP_SWEEPS passes over the constraints.
SNAP_BAND = 2.0 * FEAS_TOL
SNAP_SWEEPS = 3
# Curvature-scan controls: number of segments per scan, refinement passes,
# and the factor by which a scan span must cover the proposed step.
CURV_SEGMENTS = 8
CURV_REFINEMENTS = 4
SPAN_COVER = 1.5
SPAN_FLOOR = 1e-8
# Points sampled along the Euler ray by ``active_index_set``, and the cap
# on the linearized steps of ``project_inexact``.
RAY_SAMPLES = 9
PROJECTION_MAX_INNER = 100


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
        return max(len(self.records) - 1, 0)

    @property
    def final_x(self):
        return self.records[-1].x


def _offsets(span, segments):
    """``np.linspace(0.0, span, segments + 1)`` as Python floats, with its
    bits: i * (span / segments), and ``span`` itself last."""
    ds = span / segments
    return [i * ds for i in range(segments)] + [span]


def _ray_points(x, F, ss):
    """The points x + s*F for each s in ``ss``, as lists of Python floats.

    Each coordinate is one IEEE product and one sum, the same bits as
    NumPy's ``x + s * F``; the stacked kernels then run on Python floats,
    several times faster than on NumPy scalars.
    """
    x, F = np.asarray(x, dtype=float).tolist(), F.tolist()
    return [[a + s * f for a, f in zip(x, F)] for s in ss]


def active_index_set(p, fe, x, epsilon):
    """Indices whose constraint may rise above -epsilon along the Euler ray.

    The continuous max over s in [0, epsilon] is over-approximated by
    sampling g_j at RAY_SAMPLES equally spaced points and inflating by
    half epsilon^2 times a second-difference curvature estimate.  Each
    sample point is one run of the problem's constraint stack, which gives
    every g_j there at once.
    """
    ss = _offsets(epsilon, RAY_SAMPLES - 1)
    ds = ss[1]
    rows = [evaluate_stack(p.constraint_stack, y)[p.m:]
            for y in _ray_points(x, fe.F, ss)]
    out = []
    for j, column in enumerate(zip(*rows)):
        vals = np.array(column)
        khat = float(np.max(np.maximum(0.0, np.diff(vals, 2) / ds ** 2)))
        if np.max(vals) + 0.5 * epsilon ** 2 * khat > -epsilon:
            out.append(j)
    return tuple(out)


def project_inexact(target, p, indices):
    """Approximate nearest point with g_j <= 0 for the selected indices.

    Alternates first-order projections onto the most violated
    constraint's linearization until max_j g_j <= FEAS_TOL, in at most
    PROJECTION_MAX_INNER steps.
    """
    if not indices:
        raise ValueError("projection needs a non-empty index set")
    exprs = [p.inequalities[j] for j in indices]
    y = np.array(target, dtype=float)
    for _ in range(PROJECTION_MAX_INNER):
        gvals = np.array([evaluate(e, y) for e in exprs])
        jm = int(np.argmax(gvals))
        if gvals[jm] <= FEAS_TOL:
            return y
        gj = np.asarray(grad(exprs[jm], y), dtype=float)
        nrm2 = float(gj @ gj)
        if nrm2 == 0.0:
            raise ProjectionFailure("zero constraint gradient during projection")
        y = y - (gvals[jm] / nrm2) * gj
    raise ProjectionFailure(
        f"projection did not reach feasibility in {PROJECTION_MAX_INNER} steps")


def _curvature_scan(p, fe, x, span):
    """Curvature bounds for g_j and theta along F over [0, span].

    Samples the exact directional derivative along F at CURV_SEGMENTS+1
    equally spaced points x + s*F, formed once each on Python floats.  At
    each point one run of the problem's stacked tangent kernel, seeded
    with F (``jvp_stack`` on the scan stack), gives the slopes of theta
    and of every g_j together, with the elimination map they share
    computed once.  The largest forward difference of these slopes
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
    ss = _offsets(span, CURV_SEGMENTS)
    ds = ss[1]
    F = fe.F.tolist()
    rows = [jvp_stack(p.scan_stack, y, F) for y in _ray_points(x, fe.F, ss)]

    def kest(slopes):
        worst = max(b - a for a, b in zip(slopes, slopes[1:])) / ds
        chord = (slopes[-1] - slopes[0]) / span
        return max(0.0, 0.5 * (worst + chord))

    K_theta, *K = map(kest, zip(*rows))
    return np.array(K, dtype=float), K_theta


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


def _snap_to_facets(p, y):
    """Pull constraints inside the band back onto their exact facets.

    One Newton step per near-active constraint per sweep; dissolves the
    O(1e-16) landing noise that otherwise accumulates against the
    feasibility ceiling while riding an active facet.
    """
    moved_any = False
    for _ in range(SNAP_SWEEPS):
        moved = False
        for gexpr in p.inequalities:
            gj = evaluate(gexpr, y)
            if -SNAP_BAND <= gj <= SNAP_BAND and gj != 0.0:
                gr = np.asarray(grad(gexpr, y), dtype=float)
                nrm2 = float(gr @ gr)
                if nrm2 > 0.0:
                    y = y - (gj / nrm2) * gr
                    moved = moved_any = True
        if not moved:
            break
    return y, moved_any


def _max_g(p, x):
    if p.k == 0:
        return 0.0
    return max(evaluate_stack(p.constraint_stack, x.tolist())[p.m:])


class _Stop(Exception):
    """Ends a solve from inside a step policy; args: (termination, diagnostic)."""


def _t31_step(p, cfg, fe, x, rec):
    """Armijo halving from r; each candidate is projected onto the facets
    the Euler ray may reach."""
    active = active_index_set(p, fe, x, cfg.epsilon)
    rec.active_set = active
    s = cfg.r
    backtracks = 0
    while True:
        y, used_proj = x + s * fe.F, False
        if active:
            try:
                y, used_proj = project_inexact(y, p, active), True
            except ProjectionFailure:
                y = None
        if y is not None and _max_g(p, y) <= FEAS_TOL:
            theta_y = evaluate(p.objective, y)
            if theta_y <= fe.theta + cfg.armijo * s * fe.dtheta_F:
                rec.step, rec.backtracks, rec.proj_used = s, backtracks, used_proj
                return y
        s *= 0.5
        backtracks += 1
        if s < STEP_FLOOR * cfg.r:
            raise _Stop("field_failure", "backtracking step fell below the floor")


def _r35_step(p, cfg, fe, x, rec):
    """Curvature-bounded step; each rejection inflates the estimates."""
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
                return candidate
        bump = cfg.epsilon * 2.0 ** increments
        K = K + bump
        K_theta += bump
        increments += 1
        s = _step_bound(fe, dgF, K, K_theta, cfg.r)
        if increments > MAX_DOUBLINGS:
            worst = int(np.argmax([evaluate(e, candidate)
                                   for e in p.inequalities])) if p.k else -1
            raise _Stop("inner_cap", f"curvature increments exhausted; most "
                                     f"violated constraint index {worst}")


def solve(p, params, cfg, x0):
    """Step from the feasible start ``x0`` along the field until |F| <= stop_tol.

    Raises ValueError for an invalid configuration and SolveError for a
    problem with equality constraints or an infeasible start.  Every other
    outcome is a SolveReport whose ``termination`` names how it ended; it
    has no records when the field fails at ``x0`` itself.
    """
    cfg.validate()
    if p.m != 0:
        raise SolveError("solver requires an inequality-only problem; "
                         "reduce equality-constrained problems first")
    x = np.asarray(x0, dtype=float)
    if not is_feasible(p, x, FIELD_FEAS_TOL):
        raise SolveError("initial point is infeasible")
    policy = _t31_step if cfg.algorithm == "t31" else _r35_step

    report = SolveReport(termination="max_iter")
    # The last pass only records the iterate that max_iter steps reached.
    for i in range(cfg.max_iter + 1):
        try:
            fe = field_eval(p, params, x)
        except FieldError as exc:
            if i < cfg.max_iter:
                report.termination = "field_failure"
            report.diagnostic = str(exc)
            break
        rec = IterateRecord(x=x.copy(), theta=fe.theta,
                            normF=float(norms(fe.F)), dtheta_F=fe.dtheta_F)
        report.records.append(rec)
        if i == cfg.max_iter:
            break
        if rec.normF <= cfg.stop_tol:
            report.termination = "critical"
            break
        try:
            x = policy(p, cfg, fe, x, rec)
        except _Stop as stop:
            report.termination, report.diagnostic = stop.args
            break

    if report.records:
        try:
            report.kkt = report_at(p, report.final_x, params)
        except FieldError:
            pass
    return report
