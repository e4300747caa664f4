"""Discrete globally convergent solvers built on the descent field.

One outer loop, ``solve``, for inequality-only problems (equality-constrained
problems are reduced first).  At each iterate it evaluates the field,
records it and stops once |F| falls to ``stop_tol``, after ``max_iter``
steps, or when an accepted step leaves x bitwise unchanged (``stalled``:
every later iteration would repeat it); the KKT report of the last
iterate takes its multipliers from the field held there.  How
far to move along F is left to one of two step policies, selected by
``SolveConfig.algorithm``:

* ``t31`` -- backtracking Euler steps with an inexact projection onto
  the constraints at risk of activation along the step.
* ``r35`` -- curvature-estimating step selection; each rejection
  inflates the curvature estimates, by an increment that doubles from
  one rejection to the next, instead of halving the step.

Both accept a candidate by one test, feasibility and then sufficient
decrease of theta up to one rounding allowance (``_accepts``).  A policy
returns the accepted point, or raises ``_Stop`` to end the solve with a
termination and a diagnostic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .exprlang import EvalError, evaluate, evaluate_block, evaluate_stack, grad, jvp_block
from .field import FieldError, field_eval, norms
from .kkt import kkt_residual, multipliers
from .model import FEAS_TOL, FIELD_FEAS_TOL, is_feasible

# Backtracking floor (fraction of r) and the cap on r35's rejections,
# whose curvature increments double each time (epsilon * 2^i on rejection
# i); both convert theoretical non-termination into diagnosable failures.
# Past 64 doublings the increment dwarfs any finite curvature.
STEP_FLOOR = 1e-14
MAX_DOUBLINGS = 64
# Rounding allowance of the Armijo test, in units of eps * (1 + |theta|):
# near a minimizer the required decrease falls below one ulp of theta,
# where sufficient decrease cannot be certified in double precision (cf.
# IPOPT's relaxation of its Armijo test, Waechter & Biegler 2006).
ARMIJO_ROUNDING = 16.0
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
        if not (0 < self.r < math.inf and 0 < self.epsilon < math.inf) or self.max_iter < 1:
            raise ValueError("require finite r > 0, finite epsilon > 0, max_iter >= 1")
        if math.isnan(self.stop_tol):
            raise ValueError("stop_tol must not be NaN")
        if self.algorithm == "t31":
            if not self.epsilon < self.r:
                raise ValueError("t31 requires epsilon < r")
            if not 0 < self.armijo < 1:
                raise ValueError("t31 requires armijo in (0, 1)")
            try:
                float(self.epsilon) ** 2  # active_index_set squares epsilon
            except OverflowError:
                raise ValueError("t31 requires epsilon ** 2 to be finite") from None
        else:
            if not 0 < self.armijo <= 0.5:
                raise ValueError("r35 requires armijo in (0, 1/2]")


@dataclass
class IterateRecord:
    x: np.ndarray
    theta: float
    normF: float
    dtheta_F: float  # grad(theta) . F at x, the Armijo test's slope
    step: float = 0.0  # accepted step taken *from* this iterate
    backtracks: int = 0
    proj_used: bool = False


@dataclass
class SolveReport:
    records: list = field(default_factory=list)
    # critical | max_iter | field_failure | inner_cap | stalled: an
    # accepted step that left x bitwise unchanged, which every later
    # iteration would repeat.
    termination: str = ""
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
    NumPy's ``x + s * F``, without an array per point.
    """
    x, F = np.asarray(x, dtype=float).tolist(), F.tolist()
    return [[a + s * f for a, f in zip(x, F)] for s in ss]


def _peak_curvature(vals, dsq):
    """``np.max(np.maximum(0.0, np.diff(vals, 2) / dsq))`` on Python floats.

    The same IEEE operations on the same operands, so the same value up to
    the sign of a zero, which cannot change a comparison.  A quotient that
    is NaN makes the result NaN, as NumPy's max propagates it (Python's
    ``max`` would skip it), and ``dsq == 0`` divides as NumPy does, where
    Python raises ZeroDivisionError.
    """
    d2 = [(c - b) - (b - a) for a, b, c in zip(vals, vals[1:], vals[2:])]
    q = [d / dsq for d in d2] if dsq else [d * math.inf if d else math.nan for d in d2]
    return math.nan if any(map(math.isnan, q)) else max(0.0, *q)


def active_index_set(p, fe, x, epsilon):
    """Indices whose constraint may rise above -epsilon along the Euler ray.

    The continuous max over s in [0, epsilon] is over-approximated by
    sampling g_j at RAY_SAMPLES equally spaced points and inflating by
    half epsilon^2 times a second-difference curvature estimate.  One
    runner call (``evaluate_block``) runs the problem's constraint stack
    at every sample point, which gives every g_j there at once; the test
    itself runs on Python floats.
    """
    ss = _offsets(epsilon, RAY_SAMPLES - 1)
    dsq = ss[1] ** 2
    lift = 0.5 * epsilon ** 2
    rows = evaluate_block(p.constraint_stack, _ray_points(x, fe.F, ss))
    return tuple(j for j, vals in enumerate(zip(*(row[p.m:] for row in rows)))
                 if max(vals) + lift * _peak_curvature(vals, dsq) > -epsilon)


def project_inexact(target, p, indices):
    """Approximate nearest point with g_j <= 0 for the selected indices.

    Alternates first-order projections onto the most violated
    constraint's linearization until max_j g_j <= FEAS_TOL, in at most
    PROJECTION_MAX_INNER steps.  Each step takes every g_j from one run of
    the problem's constraint stack, so a constraint outside ``indices``
    that cannot be evaluated at y raises EvalError too.
    """
    if not indices:
        raise ValueError("projection needs a non-empty index set")
    y = np.array(target, dtype=float)
    for _ in range(PROJECTION_MAX_INNER):
        g = evaluate_stack(p.constraint_stack, y)[p.m:]
        jm = max(indices, key=g.__getitem__)
        gm = g[jm]
        if gm <= FEAS_TOL:
            return y
        gj = np.asarray(grad(p.inequalities[jm], y), dtype=float)
        nrm2 = float(gj @ gj)
        if nrm2 == 0.0:
            raise ProjectionFailure("zero constraint gradient during projection")
        y = y - (gm / nrm2) * gj
    raise ProjectionFailure(
        f"projection did not reach feasibility in {PROJECTION_MAX_INNER} steps")


def _curvature_scan(p, fe, x, span):
    """Curvature bounds for g_j and theta along F over [0, span].

    Samples the exact directional derivative along F at CURV_SEGMENTS+1
    equally spaced points x + s*F, formed once each on Python floats.  One
    runner call (``jvp_block`` on the scan stack) runs the problem's
    stacked tangent kernel, seeded with F, at every point, which gives
    the slopes of theta and of every g_j together, with the elimination
    map they share, and every operation they repeat, computed once.  The
    largest forward difference of these slopes
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

    Returns ``(K, K_theta, span)``.  A span whose kernels raise EvalError
    (an overflow at a large span) is halved until they run; below
    SPAN_FLOOR the solve ends ``field_failure``.
    """
    while True:
        ss = _offsets(span, CURV_SEGMENTS)
        try:
            rows = jvp_block(p.scan_stack, _ray_points(x, fe.F, ss), fe.F.tolist())
            break
        except EvalError as exc:
            span *= 0.5
            if span < SPAN_FLOOR:
                raise _Stop("field_failure", f"curvature scan failed at every span "
                                             f"down to {SPAN_FLOOR:g}: {exc}") from None
    ds = ss[1]

    def kest(slopes):
        worst = max(b - a for a, b in zip(slopes, slopes[1:])) / ds
        chord = (slopes[-1] - slopes[0]) / span
        return max(0.0, 0.5 * (worst + chord))

    K_theta, *K = map(kest, zip(*rows))
    return np.array(K, dtype=float), K_theta, span


def _dgF_identity(fe):
    """Directional derivative of g along F via the structural identity.

    Computed as g_j*omega_j - r3_j*v_j^+ rather than the raw dot product:
    on a facet the identity yields an exact zero where the dot product
    leaves rounding noise of arbitrary sign, which can stall the step
    selection permanently.
    """
    return fe.g * fe.omega - fe.r3 * fe.vplus


def _step_bound(fe, rec, dgF, K, K_theta, r):
    """Largest step the quadratic models allow, with BETA facet slack.

    Per constraint this is the positive root of K/2 s^2 + a s + (g-BETA),
    evaluated in the cancellation-free form -2(g-BETA)/(a + sqrt(...));
    a non-positive denominator means the model never reaches the level
    and the bound is r.  The arithmetic is on Python floats, so a square
    that overflows gives inf, as NumPy's does, but without a warning.
    """
    s = r if K_theta <= 0.0 else min(r, abs(rec.dtheta_F) / K_theta)
    for a, g, k in zip(map(float, dgF), fe.g.tolist(), map(float, K)):
        g -= BETA
        den = a + math.sqrt(max(a * a - 2.0 * k * g, 0.0))
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


def _accepts(p, cfg, rec, s, y):
    """The acceptance test of both step policies: whether the candidate
    ``y`` for the step ``s`` from the iterate ``rec`` is feasible to
    FEAS_TOL and passes the Armijo test
    theta(y) <= theta + armijo * s * dtheta_F + allowance, where the
    allowance, ARMIJO_ROUNDING * eps * (1 + |theta|), covers the rounding
    of theta near a minimizer."""
    if p.k and max(evaluate_stack(p.constraint_stack, y)[p.m:]) > FEAS_TOL:
        return False
    allowance = ARMIJO_ROUNDING * sys.float_info.epsilon * (1.0 + abs(rec.theta))
    return evaluate(p.objective, y) <= rec.theta + cfg.armijo * s * rec.dtheta_F + allowance


class _Stop(Exception):
    """Ends a solve from inside a step policy; args: (termination, diagnostic)."""


def _t31_step(p, cfg, fe, x, rec):
    """Armijo halving from r; each candidate is projected onto the facets
    the Euler ray may reach.

    The candidate x + s*F is formed on Python floats, as ``_ray_points``
    forms it, so a coordinate that overflows is an inf without a warning.
    A candidate that the projection cannot repair, or at which a kernel
    raises EvalError, is rejected like an infeasible one.  Where the
    constraints cannot be evaluated along the Euler ray (they overflow at
    a large epsilon), the solve ends ``field_failure``.
    """
    try:
        active = active_index_set(p, fe, x, cfg.epsilon)
    except EvalError as exc:
        raise _Stop("field_failure", f"Euler-ray sampling failed at epsilon = "
                                     f"{cfg.epsilon:g}: {exc}") from None
    s = cfg.r
    backtracks = 0
    while True:
        [y] = _ray_points(x, fe.F, (s,))
        try:
            y = project_inexact(y, p, active) if active else np.array(y)
            if _accepts(p, cfg, rec, s, y):
                rec.step, rec.backtracks, rec.proj_used = s, backtracks, bool(active)
                return y
        except (ProjectionFailure, EvalError):
            pass
        s *= 0.5
        backtracks += 1
        if s < STEP_FLOOR * cfg.r:
            raise _Stop("field_failure", "backtracking step fell below the floor")


def _r35_step(p, cfg, fe, x, rec):
    """Curvature-bounded step; each rejection inflates the estimates."""
    dgF = _dgF_identity(fe) if p.k else np.zeros(0)
    K, K_theta, span = _curvature_scan(p, fe, x, cfg.r)
    s = _step_bound(fe, rec, dgF, K, K_theta, cfg.r)
    # Refine the scan span toward the step actually proposed so the
    # quadratic models are local; a whole-ray scan can overestimate
    # curvature by orders of magnitude and stall the iteration.
    for _ in range(CURV_REFINEMENTS):
        new_span = min(cfg.r, max(SPAN_COVER * s, SPAN_FLOOR))
        if new_span >= 0.9 * span:
            break
        K, K_theta, span = _curvature_scan(p, fe, x, new_span)
        s = _step_bound(fe, rec, dgF, K, K_theta, cfg.r)
    # Never step beyond the interval the models were sampled on.
    s = min(s, span)

    increments = 0
    while True:
        candidate, snapped = _snap_to_facets(p, x + s * fe.F)
        if _accepts(p, cfg, rec, s, candidate):
            rec.step, rec.backtracks, rec.proj_used = s, increments, snapped
            return candidate
        bump = cfg.epsilon * 2.0 ** increments
        K = K + bump
        K_theta += bump
        increments += 1
        s = _step_bound(fe, rec, dgF, K, K_theta, cfg.r)
        if increments > MAX_DOUBLINGS:
            worst = (int(np.argmax(evaluate_stack(p.constraint_stack, candidate)[p.m:]))
                     if p.k else -1)
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
        except (FieldError, EvalError) as exc:
            if i < cfg.max_iter:
                report.termination = "field_failure"
            report.diagnostic = str(exc)
            break
        with np.errstate(over="ignore"):  # a slope that overflows is -inf or inf
            dtheta_F = float(fe.grad_theta.dot(fe.F))
        rec = IterateRecord(x=x.copy(), theta=fe.theta, normF=float(norms(fe.F)),
                            dtheta_F=dtheta_F)
        report.records.append(rec)
        if i == cfg.max_iter:
            break
        if rec.normF <= cfg.stop_tol:
            report.termination = "critical"
            break
        try:
            y = policy(p, cfg, fe, x, rec)
        except _Stop as stop:
            report.termination, report.diagnostic = stop.args
            break
        if y.tobytes() == x.tobytes():
            report.termination = "stalled"
            report.diagnostic = (f"accepted step {rec.step:.3e} left x unchanged "
                                 f"at |F| = {rec.normF:.3e}")
            break
        x = y

    if report.records:
        # fe is the field of the last record: a failed assembly leaves it as it was.
        report.kkt = kkt_residual(p, report.final_x, *multipliers(p, fe))
    return report
