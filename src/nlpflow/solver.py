"""Discrete globally convergent solvers built on the descent field.

One outer loop, ``solve``, for inequality-only problems (equality-constrained
problems are reduced first).  At each iterate it evaluates the field,
records it and stops once |F| falls to ``stop_tol``, after ``max_iter``
steps, or when an accepted step leaves x bitwise unchanged (``stalled``:
every later iteration would repeat it); the KKT report of the last iterate
takes its multipliers from the field held there.  How far to move along F
is left to one of two step policies, selected by ``SolveConfig.algorithm``:

* ``t31`` -- backtracking Euler steps; each candidate is projected onto
  the constraints whose maximum along the ray over [0, epsilon] rises
  above -epsilon.
* ``r35`` -- the step ends where theta stops falling or a facet that does
  not ride reaches BETA, at most r; each rejection halves it, and each
  candidate is snapped onto the riding facets and those in SNAP_BAND.

Both read theta and each g_j along x + s*F as the polynomials of one ray
run (``_ray``), whose roots ``_sign_changes`` places, and correct a
candidate with one least-norm Newton projection (``_newton_project``).
Both accept it by one test, feasibility and then sufficient decrease of
theta up to one rounding allowance (``_accepts``), on the constraint
values that the projection computed; a candidate at which a kernel or the
projection fails is rejected.  A policy returns the accepted point, or
raises ``_Stop`` to end the solve with a termination and a diagnostic.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .exprlang import _OVERFLOW, EvalError, evaluate, evaluate_stack, grad, ray_polynomials
from .field import FieldError, field_eval, norms
from .kkt import kkt_residual, multipliers
from .model import FEAS_TOL, FIELD_FEAS_TOL, is_feasible

# Backtracking floor (fraction of r) and the cap on r35's rejections, each
# of which halves its step; both convert theoretical non-termination into
# diagnosable failures.
STEP_FLOOR = 1e-14
MAX_HALVINGS = 64
# Rounding allowance of the Armijo test, in units of eps * (1 + |theta|):
# near a minimizer the required decrease falls below one ulp of theta,
# where sufficient decrease cannot be certified in double precision (cf.
# IPOPT's relaxation of its Armijo test, Waechter & Biegler 2006).
ARMIJO_ROUNDING = 16.0
# r35's step bound keeps each facet that does not ride below BETA, not 0, so
# an iterate that lands near a facet keeps room to move along it.
BETA = 0.5 * FEAS_TOL
# A facet within SNAP_BAND that the field's multiplier estimate holds
# (v+_j = 0) rides: it leaves r35's step bound, and SNAP_SWEEPS Newton steps
# pull each candidate back onto it and the other facets in the band, a
# second-order correction (Nocedal & Wright, *Numerical Optimization*,
# 15.6) that keeps landing noise off the feasibility ceiling.  A facet whose
# Newton step is longer than the candidate's own is left out of the snap.
SNAP_BAND = 2.0 * FEAS_TOL
SNAP_SWEEPS = 3
# Relative slack of the bound ``_reach`` that skips a polynomial which
# cannot change sign on an interval, or a constraint far below -epsilon in
# t31's test: the bound is summed in floating point, and the slack is far
# more than its rounding, so no value that the full test evaluates differs.
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
            # Past it the ray test's value of a quadratic at epsilon
            # overflows; where a value along the ray overflows at a smaller
            # epsilon, the solve ends field_failure.
            if not math.isfinite(self.epsilon * self.epsilon):
                raise ValueError("t31 requires epsilon ** 2 to be finite")
        elif not 0 < self.armijo <= 0.5:
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


def _ray_point(x, F, s):
    """The point x + s*F as a list of Python floats.

    Each coordinate is one IEEE product and one sum, the same bits as
    NumPy's ``x + s * F``, without an array; one that overflows is an inf
    without NumPy's warning.
    """
    return [a + s * f for a, f in zip(np.asarray(x, dtype=float).tolist(), F.tolist())]


def _ray(stack, x, F):
    """``(polys, scale)``: c_0..c_D, lowest first, of each expression of
    ``stack`` at x + t*(F*scale), from one ray run at scale 1, so s =
    t*scale on the ray x + s*F.  Where a coefficient is not finite (|F|^D
    overflows), the ray runs again along F * scale, the scale falling by
    2^-64 a run, an exact scaling, until every one is finite or F * scale
    is below 2^-64."""
    scale, u = 1.0, F
    while True:
        polys = ray_polynomials(stack, x, u)
        if all([all(map(math.isfinite, c)) for c in polys]) or not np.abs(u).max() > 2.0 ** -64:
            return polys, scale
        scale *= 2.0 ** -64
        u = F * scale


def _at(c, s):
    """P, with coefficients ``c``, lowest first, at s: Horner's rule."""
    v = 0.0
    for ci in reversed(c):
        v = v * s + ci
    return v


def _value_slope(c, s):
    """P and P' at s, for P with coefficients ``c``, by one Horner pass."""
    v = d = 0.0
    for ci in reversed(c):
        d = d * s + v
        v = v * s + ci
    return v, d


def _derivative(c):
    return [i * c[i] for i in range(1, len(c))]


def _reach(c, hi):
    """sum |c_i| hi^i over i >= 1: a bound on |P(s) - c_0| on [0, hi]."""
    reach = 0.0
    for ci in c[:0:-1]:
        reach = (reach + abs(ci)) * hi
    return reach


def _sign_changes(c, hi):
    """Each point of (0, hi] where P, with coefficients ``c``, changes side
    of 0 (P > 0 or P <= 0), in order: the last float on the old side.  A
    generator, so ``next(_sign_changes(c, hi), hi)`` finds the first alone.
    No root lies past twice Cauchy's bound 1 + max |c_i / c_top|, which caps
    hi.  The changes of P' split [0, hi] into pieces on which P is
    monotone, each with at most one change, which ``_last_before`` places.
    Where |c_0| exceeds ``_reach``, with RAY_SLACK, P changes nowhere."""
    if hi > 2.0:  # twice Cauchy's bound is at least 2
        top = max((i for i, ci in enumerate(c) if ci), default=0)
        if top:
            hi = min(hi, 2.0 * (1.0 + max(map(abs, c[:top])) / abs(c[top])))
    a, pa = 0.0, _at(c, 0.0)
    reach = _reach(c, hi)
    if abs(pa) > reach + RAY_SLACK * (abs(pa) + reach):
        return
    for b in itertools.chain(_sign_changes(_derivative(c), hi) if any(c[2:]) else (), (hi,)):
        pb = _at(c, b)
        if (pb > 0) != (pa > 0):
            yield _last_before(c, a, b, pa, pb)
        a, pa = b, pb


def _last_before(c, a, b, pa, pb):
    """The last float of [a, b) on P's side at a, where P (coefficients
    ``c``) is monotone on [a, b] and pa = P(a), pb = P(b) lie on different
    sides: the bracket shrinks until its ends are adjacent.  Newton's steps
    start from the secant point; one that leaves the bracket or does not
    halve the one before gives way to the midpoint, and one below the
    spacing of the floats to the next float toward the other end."""
    up, width = pa > 0, b - a
    t = a + pa / (pa - pb) * width
    while a < a + 0.5 * (b - a) < b:  # the ends are not adjacent
        if not a < t < b:
            t, width = a + 0.5 * (b - a), b - a
        pt, dt = _value_slope(c, t)
        if (pt > 0) == up:
            a, toward = t, b
        else:
            b, toward = t, a
        step = -pt / dt if dt else math.inf
        if abs(step) < 0.5 * width:
            t, width = t + step if t + step != t else math.nextafter(t, toward), abs(step)
        else:
            t = math.nan  # bisect on the next pass
    return a


def active_index_set(p, fe, x, epsilon):
    """Indices whose constraint may rise above -epsilon along the Euler ray.

    One ray run of the constraint stack (``_ray``) gives each g_j along
    x + s*F as a polynomial P: exact up to degree RAY_DEGREE, a truncated
    Taylor model above it, and along a scaled direction where a coefficient
    overflows.  On it, with no kernel run, j is active where the maximum of
    P over [0, epsilon], taken at 0, at epsilon and at the changes of P',
    exceeds -epsilon.  Where the bound |c_0| + ``_reach`` is finite, c_0 >
    -epsilon makes j active, and a bound below -epsilon by more than
    RAY_SLACK makes it inactive, without the maximum.  A constraint whose
    coefficients are not finite is active; one whose maximum is not finite
    raises the EvalError of an overflow.
    """
    polys, scale = _ray(p.constraint_stack, x, fe.F)
    hi = min(epsilon / scale, sys.float_info.max)
    active = []
    for j, c in enumerate(polys[p.m:]):
        reach = _reach(c, hi)
        size = abs(c[0]) + reach
        if math.isfinite(size):  # no value on [0, epsilon] overflows
            if c[0] > -epsilon:
                active.append(j)
                continue
            if c[0] + reach + RAY_SLACK * size < -epsilon:
                continue
        elif not all(map(math.isfinite, c)):
            active.append(j)
            continue
        top = max(_at(c, t) for t in (0.0, hi, *_sign_changes(_derivative(c), hi)))
        if not math.isfinite(top):
            raise EvalError(_OVERFLOW)
        if top > -epsilon:
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


def _in_snap_band(g, riding=()):
    """The facets r35 snaps a candidate onto: those with 0 < |g_j| <=
    SNAP_BAND, and the ``riding`` ones with g_j != 0."""
    return [j for j, v in enumerate(g) if v != 0.0 and (abs(v) <= SNAP_BAND or j in riding)]


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
    """The first point of the ray where theta stops falling or a facet that
    does not ride reaches BETA, at most r; each rejection halves it.  Each
    candidate is snapped onto the riding facets and those in SNAP_BAND that
    a Newton step no longer than s*|F| reaches, then tested.

    A facet rides where |g_j| <= SNAP_BAND and v+_j = 0: its ray slope is
    rounding noise of either sign there, so it stays out of the bound.  One
    ray run of the field stack (``_ray``) gives theta and every g_j; the
    bound is the first change of theta', and of each g_j - BETA that does
    not ride, in either direction, with no kernel run.  A ray run that
    fails ends the solve ``field_failure``.
    """
    riding = {j for j, (g, v) in enumerate(zip(fe.g.tolist(), fe.vplus.tolist()))
              if abs(g) <= SNAP_BAND and v == 0.0}
    try:
        (theta, *gs), scale = _ray(p.field_stack, x, fe.F)
    except EvalError as exc:
        raise _Stop("field_failure", f"ray run failed: {exc}") from None
    hi = min(cfg.r / scale, sys.float_info.max)
    t = next(_sign_changes(_derivative(theta), hi), hi)
    for j, c in enumerate(gs):
        if j not in riding:
            t = next(_sign_changes([c[0] - BETA, *c[1:]], t), t)
    s = cfg.r if t == hi else t * scale

    halvings = 0
    while True:
        y = _ray_point(x, fe.F, s)
        try:
            y, steps, _, g = _newton_project(p, y, lambda g: _in_snap_band(g, riding),
                                             SNAP_SWEEPS, s * rec.normF)
            if _accepts(p, cfg, rec, s, y, g):
                rec.step, rec.backtracks, rec.proj_used = s, halvings, steps > 0
                return y
            why = f"most violated constraint index {int(np.argmax(g)) if p.k else -1}"
        except (ProjectionFailure, EvalError) as exc:
            why = f"the last candidate failed: {exc}"
        if halvings == MAX_HALVINGS:
            raise _Stop("inner_cap", f"{MAX_HALVINGS} step halvings exhausted; {why}")
        s *= 0.5
        halvings += 1


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
