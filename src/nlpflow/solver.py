"""Discrete globally convergent solvers built on the descent field.

One outer loop, ``solve``, for inequality-only problems (equality-constrained
problems are reduced first).  At each iterate it evaluates the field,
records it and stops once |F| falls to ``stop_tol``, after ``max_iter``
steps, or when an accepted step leaves x bitwise unchanged (``stalled``:
every later iteration would repeat it); the KKT report of the last iterate
takes its multipliers from the field held there.  How far to move along F
is left to one of two step policies, selected by ``SolveConfig.algorithm``:

* ``t31`` -- backtracking Euler steps; each candidate is projected onto
  the constraints at risk of activation along the step.
* ``r35`` -- curvature-estimating step selection; each rejection
  inflates the curvature estimates, by an increment that doubles from
  one rejection to the next, instead of halving the step.  Each
  candidate is snapped onto the facets within SNAP_BAND of it that a
  Newton step no longer than the candidate's own step reaches.

Both correct a candidate with one least-norm Newton projection
(``_newton_project``) and accept it by one test, feasibility and then
sufficient decrease of theta up to one rounding allowance (``_accepts``),
which takes the constraint values that the projection computed at the
candidate; a candidate at which a kernel or the projection fails is
rejected.  A policy returns the accepted point, or raises ``_Stop`` to end
the solve with a termination and a diagnostic.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .exprlang import _OVERFLOW, EvalError, evaluate, evaluate_stack, grad, ray_polynomials
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
# back onto the exact facets (``_newton_project``) before being tested, in
# at most SNAP_SWEEPS steps; this dissolves the O(1e-16) landing noise that
# otherwise accumulates against the feasibility ceiling along a facet.  A
# facet whose Newton step is longer than the candidate's own step is not
# landing noise (its gradient is nearly zero), and is left out of the snap.
SNAP_BAND = 2.0 * FEAS_TOL
SNAP_SWEEPS = 3
# Curvature-scan controls: number of segments per scan, refinement passes,
# the factor by which a scan span must cover the proposed step, and the
# smallest span that a refinement proposes or an overflow halving reaches.
CURV_SEGMENTS = 8
CURV_REFINEMENTS = 4
SPAN_COVER = 1.5
SPAN_FLOOR = 1e-8
# Segments of [0, epsilon] at whose ends t31's active-set test takes each
# constraint's ray polynomial.
RAY_SEGMENTS = 8
# Relative slack of the bound that lets the active-set test skip the points
# of a constraint far below -epsilon: far more than the rounding of the test.
RAY_SLACK = 2.0 ** -40
# The cap on the Newton steps of ``project_inexact``.  The caps cannot be
# one: more snap steps move r35's bits, and some snaps never reach g_j = 0
# exactly.
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
                # Rejects only an epsilon whose square overflows; where
                # active_index_set's values along the ray overflow at a
                # smaller one, the solve ends field_failure.
                float(self.epsilon) ** 2
            except OverflowError:
                raise ValueError("t31 requires epsilon ** 2 to be finite") from None
        else:
            if not 0 < self.armijo <= 0.5:
                raise ValueError("r35 requires armijo in (0, 1/2]")
            if not self.r / CURV_SEGMENTS > 0:  # the first scan's spacing
                raise ValueError(f"r35 requires r / {CURV_SEGMENTS} > 0, so r >= 2.5e-323")


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


def _ray_point(x, F, s):
    """The point x + s*F as a list of Python floats.

    Each coordinate is one IEEE product and one sum, the same bits as
    NumPy's ``x + s * F``, without an array; one that overflows is an inf
    without NumPy's warning.
    """
    return [a + s * f for a, f in zip(np.asarray(x, dtype=float).tolist(), F.tolist())]


def active_index_set(p, fe, x, epsilon):
    """Indices whose constraint may rise above -epsilon along the Euler ray.

    One run of the ray kernel of the problem's constraint stack gives each
    g_j along x + s*F as P(s) = c_0 + c_1 s + ... + c_D s^D
    (``ray_polynomials``): exactly for a constraint of degree at most
    RAY_DEGREE, a truncated Taylor model otherwise.  On it, with no kernel
    run, j is active where the ray sampler's test flags it: the largest
    P(s_i) over the RAY_SEGMENTS+1 points s_i of [0, epsilon], lifted by
    epsilon^2/2 times the largest positive second difference of P over
    ds^2, exceeds -epsilon.  That second difference is P''(s_i) + 2 c_4
    ds^2 exactly, taken without dividing by ds^2, so it does not break down
    where ds^2 underflows.

    The sum of |c_i| (2 epsilon)^i over i >= 1 bounds both the rise of P
    and the lift, so where it is finite, a constraint with c_0 > -epsilon
    is active and one that stays below -epsilon by more than the test's
    rounding is not, without the points.  A constraint whose coefficients
    or second differences are not finite is active, as the sampler's
    overflowing differences made it; one whose P(s_i) is not finite raises
    the EvalError of an overflow.
    """
    ss = _offsets(epsilon, RAY_SEGMENTS)
    inner, ds2, lift, width = ss[1:-1], ss[1] * ss[1], 0.5 * (epsilon * epsilon), 2.0 * epsilon
    active = []
    for j, c in enumerate(ray_polynomials(p.constraint_stack, x, fe.F)[p.m:]):
        if not all(map(math.isfinite, c)):
            active.append(j)
            continue
        reach = 0.0
        for ci in c[:0:-1]:
            reach = (reach + abs(ci)) * width
        size = abs(c[0]) + reach
        if math.isfinite(size):  # no P(s_i) overflows
            if c[0] > -epsilon:
                active.append(j)
                continue
            if c[0] + reach + RAY_SLACK * size < -epsilon:
                continue
        top = max(_horner(c[::-1], ss))
        if not math.isfinite(top):
            raise EvalError(_OVERFLOW)
        bend = max(_horner([i * (i - 1) * c[i] for i in range(len(c) - 1, 1, -1)], inner))
        bend += 2.0 * c[4] * ds2
        if not math.isfinite(bend) or top + lift * max(0.0, bend) > -epsilon:
            active.append(j)
    return tuple(active)


def _newton_project(p, y, select, max_steps, reach=math.inf):
    """Least-norm Gauss-Newton steps from ``y`` onto the facets g_J = 0: the
    projection of Rosen's gradient projection method (J. SIAM 8(1), 1960).

    Each step runs the constraint stack once at y, ``select(g)`` names the
    facets J still to reach, and y moves by the least-norm d with B d = g_J,
    B's rows being the gradients of g_J: (g_j/|b|^2) b for one facet, else
    ``np.linalg.lstsq`` on rows scaled to unit length, which copes with
    duplicate facets and keeps one with a small gradient.  A facet with a
    zero gradient, or whose own Newton step |g_j|/|b| is longer than
    ``reach``, is left out of the step.  Returns ``(y, steps, J, g)`` at
    the first y where J is empty, every facet of J is left out, or
    ``max_steps`` steps are taken: where the first J is empty, right after
    the one stack run, with no step bookkeeping.
    """
    y = np.array(y, dtype=float)
    g = evaluate_stack(p.constraint_stack, y)[p.m:]
    J = select(g)
    steps = 0
    while J and steps < max_steps:
        rows = [(g[j], b) for j in J
                for b in [np.asarray(grad(p.inequalities[j], y), dtype=float)]
                for bb in [float(b @ b)] if bb > 0.0 and abs(g[j]) <= reach * math.sqrt(bb)]
        if not rows:
            break
        if len(rows) == 1:
            [(gj, b)] = rows
            y = y - (gj / float(b @ b)) * b
        else:
            gJ, B = map(np.array, zip(*rows))
            scale = np.linalg.norm(B, axis=1)
            y = y - np.linalg.lstsq(B / scale[:, None], gJ / scale, rcond=None)[0]
        steps += 1
        g = evaluate_stack(p.constraint_stack, y)[p.m:]
        J = select(g)
    return y, steps, J, g


def _project_inexact(target, p, indices):
    """``project_inexact``'s point, and every g_j there."""
    y, steps, left, g = _newton_project(
        p, target, lambda g: [j for j in indices if g[j] > FEAS_TOL], PROJECTION_MAX_INNER)
    if left:
        raise ProjectionFailure(
            f"projection did not reach feasibility in {PROJECTION_MAX_INNER} steps"
            if steps == PROJECTION_MAX_INNER else "zero constraint gradient during projection")
    return y, g


def project_inexact(target, p, indices):
    """Approximate nearest point with g_j <= 0 for the selected indices.

    ``_newton_project`` onto the selected facets with g_j > FEAS_TOL, in at
    most PROJECTION_MAX_INNER steps.  Every step runs the whole constraint
    stack, so a constraint outside ``indices`` that cannot be evaluated at
    y raises EvalError too.  Facets left over raise ProjectionFailure.
    """
    if not indices:
        raise ValueError("projection needs a non-empty index set")
    return _project_inexact(target, p, indices)[0]


def _slope_polynomials(p, fe, x):
    """The slopes along F of theta and of every g_j on the ray x + s*F, as
    polynomials: ``(slopes, scale)``, where each of ``slopes`` holds the
    coefficients of sum i*c_i*t^(i-1), highest first, for Horner's rule,
    and the slope at s is that polynomial at t = s/scale, over scale.

    One ray run (``ray_polynomials``) of the field stack, which is (theta,
    g_1, ..., g_k) on the problems ``solve`` accepts, gives every c_i, with
    the elimination map they share, and every operation they repeat,
    computed once.  Its scale is 1.  Where a slope coefficient along F is
    not finite (|F|^D overflows), the ray runs again along F * scale, the
    scale falling by 2^-64 a run, an exact scaling, until every one is
    finite or F * scale is below 2^-64.
    """
    scale, u = 1.0, fe.F
    while True:
        slopes = [[i * c[i] for i in range(len(c) - 1, 0, -1)]
                  for c in ray_polynomials(p.field_stack, x, u)]
        if all([all(map(math.isfinite, d)) for d in slopes]) or not np.abs(u).max() > 2.0 ** -64:
            return slopes, scale
        scale *= 2.0 ** -64
        u = fe.F * scale


def _curvature_scan(slopes, span, scale=1.0):
    """Curvature bounds for g_j and theta along F over [0, span].

    Evaluates each slope polynomial of ``_slope_polynomials``, with its
    ``scale``, at CURV_SEGMENTS+1 equally spaced points of [0, span], with
    no kernel run.  The largest forward difference of these slopes bounds
    the second derivative on the sampled interval, while the end-to-end
    chord gives its average; the estimate is their mean.  The worst-case
    bound alone over-throttles steps along strongly curved facets, and the
    average alone can underestimate badly enough to exhaust the rejection
    loop, so the blend trades a few rejections for steps of useful length.

    Differencing first derivatives rather than function values keeps the
    estimate conditioned at small spans: value second differences drown
    in rounding noise (noise/ds^2 diverges as the span shrinks), which
    would collapse the span refinement near critical points where theta
    varies by less than one ulp.

    Floored at zero, not epsilon: a positive floor makes the step bound
    for a tangentially approached facet collapse like sqrt(|g_j|) and the
    iteration crawl, while inner-loop termination is already guaranteed
    by the rejection increments.

    Returns ``(K, K_theta, span)``.  A span at which a slope is not finite
    (an overflow at a large span) is halved until every slope is; below
    SPAN_FLOOR the solve ends ``field_failure``.  A halved span's slopes
    are evaluated at its end first, and at its other points only where
    they are finite there: a slope that overflows at the end fails the span.
    """
    ss = _offsets(span, CURV_SEGMENTS)
    rows = _slopes_at(slopes, ss, scale)
    while not all([all(map(math.isfinite, row)) for row in rows]):
        end = rows  # halve until the slopes at the span's end are finite
        while not all([all(map(math.isfinite, row)) for row in end]):
            span *= 0.5
            if span < SPAN_FLOOR:
                raise _Stop("field_failure", f"curvature scan failed at every span "
                                             f"down to {SPAN_FLOOR:g}: {_OVERFLOW}")
            ss = _offsets(span, CURV_SEGMENTS)
            end = _slopes_at(slopes, ss[-1:], scale)
        rows = _slopes_at(slopes, ss, scale)
    ds = ss[1]

    def kest(slopes):
        worst = max(map(operator.sub, slopes[1:], slopes)) / ds
        chord = (slopes[-1] - slopes[0]) / span
        return max(0.0, 0.5 * (worst + chord))

    K_theta, *K = map(kest, rows)
    return np.array(K, dtype=float), K_theta, span


def _slopes_at(slopes, ss, scale):
    """Each slope polynomial of ``_slope_polynomials``, with its ``scale``, at
    each of ``ss``: the polynomial at s/scale, over scale."""
    if scale == 1.0:
        return [_horner(d, ss) for d in slopes]
    ts = [s / scale for s in ss]
    return [[v / scale for v in _horner(d, ts)] for d in slopes]


def _horner(coefficients, ss):
    """The polynomial with ``coefficients``, highest first, at each of
    ``ss``: ``np.polyval``'s Horner steps, from 0.0, on Python floats."""
    values = []
    for s in ss:
        v = 0.0
        for c in coefficients:
            v = v * s + c
        values.append(v)
    return values


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


def _in_snap_band(g):
    """The facets r35 snaps a candidate onto: 0 < |g_j| <= SNAP_BAND."""
    return [j for j, v in enumerate(g) if 0.0 < abs(v) <= SNAP_BAND]


def _accepts(p, cfg, rec, s, y, g):
    """The acceptance test of both step policies: whether the candidate
    ``y`` for the step ``s`` from the iterate ``rec``, where the
    inequalities take the values ``g``, is feasible to FEAS_TOL and passes
    the Armijo test theta(y) <= theta + armijo * s * dtheta_F + allowance,
    where the allowance, ARMIJO_ROUNDING * eps * (1 + |theta|), covers the
    rounding of theta near a minimizer."""
    if p.k and max(g) > FEAS_TOL:  # max() of no g raises
        return False
    allowance = ARMIJO_ROUNDING * sys.float_info.epsilon * (1.0 + abs(rec.theta))
    return evaluate(p.objective, y) <= rec.theta + cfg.armijo * s * rec.dtheta_F + allowance


class _Stop(Exception):
    """Ends a solve from inside a step policy; args: (termination, diagnostic)."""


def _t31_step(p, cfg, fe, x, rec):
    """Armijo halving from r; each candidate is projected onto the facets
    the Euler ray may reach.  With no facet selected, the projection is one
    run of the constraint stack at the candidate, which gives its g.

    Where the ray run of the constraint stack fails, or a constraint's
    value at a point of the ray test is not finite (it overflows at a large
    epsilon), the solve ends ``field_failure``.
    """
    try:
        active = active_index_set(p, fe, x, cfg.epsilon)
    except EvalError as exc:
        raise _Stop("field_failure", f"Euler-ray sampling failed at epsilon = "
                                     f"{cfg.epsilon:g}: {exc}") from None
    s = cfg.r
    backtracks = 0
    while True:
        y = _ray_point(x, fe.F, s)
        try:
            y, g = _project_inexact(y, p, active)
            if _accepts(p, cfg, rec, s, y, g):
                rec.step, rec.backtracks, rec.proj_used = s, backtracks, bool(active)
                return y
        except (ProjectionFailure, EvalError):
            pass
        s *= 0.5
        backtracks += 1
        if s < STEP_FLOOR * cfg.r:
            raise _Stop("field_failure", "backtracking step fell below the floor")


def _r35_step(p, cfg, fe, x, rec):
    """Curvature-bounded step; each rejection inflates the estimates.  Each
    candidate is snapped onto the facets within SNAP_BAND that a Newton
    step no longer than s*|F| reaches, then tested.

    One ray run of the field stack gives the slope polynomials (a few more
    where their coefficients along F overflow); every scan, refinement and
    overflow halving evaluates them with no kernel run.  A ray run that
    fails ends the solve ``field_failure``.
    """
    # g's rate along F from the identity g_j*omega_j - r3_j*v_j^+, not the
    # dot product: on a facet it is an exact zero where the dot product
    # leaves rounding noise of either sign, which can stall the steps.
    dgF = fe.g * fe.omega - fe.r3 * fe.vplus
    try:
        slopes, scale = _slope_polynomials(p, fe, x)
    except EvalError as exc:
        raise _Stop("field_failure", f"curvature scan failed on the ray: {exc}") from None
    K, K_theta, span = _curvature_scan(slopes, cfg.r, scale)
    s = _step_bound(fe, rec, dgF, K, K_theta, cfg.r)
    # Refine the scan span toward the step actually proposed so the
    # quadratic models are local; a whole-ray scan can overestimate
    # curvature by orders of magnitude and stall the iteration.
    for _ in range(CURV_REFINEMENTS):
        new_span = min(cfg.r, max(SPAN_COVER * s, SPAN_FLOOR))
        if new_span >= 0.9 * span:
            break
        K, K_theta, span = _curvature_scan(slopes, new_span, scale)
        s = _step_bound(fe, rec, dgF, K, K_theta, cfg.r)
    # Never step beyond the interval the models were sampled on.
    s = min(s, span)

    increments = 0
    while True:
        y = _ray_point(x, fe.F, s)
        try:
            y, steps, _, g = _newton_project(p, y, _in_snap_band, SNAP_SWEEPS,
                                             s * rec.normF)
            if _accepts(p, cfg, rec, s, y, g):
                rec.step, rec.backtracks, rec.proj_used = s, increments, steps > 0
                return y
            why = f"most violated constraint index {int(np.argmax(g)) if p.k else -1}"
        except (ProjectionFailure, EvalError) as exc:
            why = f"the last candidate failed: {exc}"
        bump = cfg.epsilon * 2.0 ** increments
        K = K + bump
        K_theta += bump
        increments += 1
        s = _step_bound(fe, rec, dgF, K, K_theta, cfg.r)
        if increments > MAX_DOUBLINGS:
            raise _Stop("inner_cap", f"curvature increments exhausted; {why}")


def solve(p, params, cfg, x0):
    """Step from the feasible start ``x0`` along the field until |F| <= stop_tol.

    Raises ValueError for an invalid configuration or gains sized for
    another problem, and SolveError for a problem with equality
    constraints or an infeasible start.  Every other
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
