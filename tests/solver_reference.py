"""Reference per-expression forms of the solver's ray test, inexact
projection and facet snap.

``active_index_set`` is t31's ray test one constraint at a time, on NumPy:
the maximum of each g_j's ray polynomial over [0, epsilon], taken at 0,
at epsilon and at the real parts of ``np.roots`` of its derivative, along
the direction that ``solver._ray`` scales for that constraint alone.  The
stacked test must give its active set, and fail where it fails.
``sampled_active_index_set`` is the test as it was before the ray
polynomials: the value of each g_j at RAY_SAMPLES points of the ray, with
a curvature lift; where that lift does not decide, the two agree.
``project_inexact`` takes the least-norm Newton steps of
``_newton_project`` with one ``evaluate`` and one ``grad`` call per
expression; the stacked version must return the same bits.

``snap_to_facets`` is r35's snap as it was before the one least-norm
projection replaced it: up to SNAP_SWEEPS sweeps of one Newton step per
constraint in the band.  Where at most one facet is in the band, the
projection must return its point and moved flag bit for bit.
"""

import numpy as np

from nlpflow import solver
from nlpflow.exprlang import _OVERFLOW, EvalError, evaluate, grad
from nlpflow.solver import FEAS_TOL, PROJECTION_MAX_INNER, SNAP_BAND, SNAP_SWEEPS, ProjectionFailure

# Points at which the ray sampler took the values of each g_j.
RAY_SAMPLES = 9


def active_index_set(p, fe, x, epsilon):
    out = []
    for j, gexpr in enumerate(p.inequalities):
        [c], scale = solver._ray(gexpr, x, fe.F)
        if not np.isfinite(c).all():
            out.append(j)
            continue
        hi = min(epsilon / scale, np.finfo(float).max)
        P = np.polynomial.Polynomial(c or [0.0])
        ts = [0.0, hi]
        if len(c) > 2:
            ts += np.clip(P.deriv().roots().real, 0.0, hi).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            top = max(P(np.array(ts)))
        if not np.isfinite(top):
            raise EvalError(_OVERFLOW)
        if top > -epsilon:
            out.append(j)
    return tuple(out)


def sampled_active_index_set(p, fe, x, epsilon):
    F = fe.F
    ss = np.linspace(0.0, epsilon, RAY_SAMPLES)
    ds = ss[1] - ss[0]
    out = []
    for j, gexpr in enumerate(p.inequalities):
        vals = np.array([evaluate(gexpr, x + s * F) for s in ss])
        khat = float(np.max(np.maximum(0.0, np.diff(vals, 2) / ds ** 2)))
        if np.max(vals) + 0.5 * epsilon ** 2 * khat > -epsilon:
            out.append(j)
    return tuple(out)


def _least_norm_step(rows):
    """The least-norm d with b_j . d = g_j for each row (g_j, b_j)."""
    if len(rows) == 1:
        [(gj, b)] = rows
        return (gj / float(b @ b)) * b
    gJ = np.array([gj for gj, _ in rows])
    B = np.array([b for _, b in rows])
    scale = np.linalg.norm(B, axis=1)
    return np.linalg.lstsq(B / scale[:, None], gJ / scale, rcond=None)[0]


def project_inexact(target, p, indices):
    exprs = [p.inequalities[j] for j in indices]
    y = np.array(target, dtype=float)
    for steps in range(PROJECTION_MAX_INNER + 1):
        violated = [(gj, e) for e in exprs if (gj := evaluate(e, y)) > FEAS_TOL]
        if not violated:
            return y
        if steps == PROJECTION_MAX_INNER:
            raise ProjectionFailure(
                f"projection did not reach feasibility in {PROJECTION_MAX_INNER} steps")
        rows = [(gj, b) for gj, e in violated
                for b in [np.asarray(grad(e, y), dtype=float)] if b @ b > 0.0]
        if not rows:
            raise ProjectionFailure("zero constraint gradient during projection")
        y = y - _least_norm_step(rows)


def snap_to_facets(p, y):
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
