"""Reference per-expression forms of the solver's curvature scan, ray
sampler, inexact projection and facet snap.

``curvature_scan`` and ``active_index_set`` are ``_curvature_scan`` and
``active_index_set`` as they were before the problem's expressions were
stacked into one kernel: one ``jvp_block`` or ``evaluate`` call per
expression per point, and the ray sampler's test on NumPy arrays.
``project_inexact`` takes the least-norm Newton steps of
``_newton_project`` with one ``evaluate`` and one ``grad`` call per
expression.  They are kept for tests only: the stacked versions must
return the same bits.

``snap_to_facets`` is r35's snap as it was before the one least-norm
projection replaced it: up to SNAP_SWEEPS sweeps of one Newton step per
constraint in the band.  Where at most one facet is in the band, the
projection must return its point and moved flag bit for bit.
"""

import numpy as np

from nlpflow.exprlang import evaluate, grad, jvp_block
from nlpflow.solver import (CURV_SEGMENTS, FEAS_TOL, PROJECTION_MAX_INNER, RAY_SAMPLES,
                            SNAP_BAND, SNAP_SWEEPS, ProjectionFailure)


def active_index_set(p, fe, x, epsilon):
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


def curvature_scan(p, fe, x, span):
    x = np.asarray(x, dtype=float)
    ss = np.linspace(0.0, span, CURV_SEGMENTS + 1)
    ds = span / CURV_SEGMENTS

    def kest(expr):
        slopes = [jvp_block(expr, [x + s * fe.F], fe.F)[0][0] for s in ss]
        worst = float(np.max(np.diff(slopes))) / ds
        chord = (slopes[-1] - slopes[0]) / span
        return max(0.0, 0.5 * (worst + chord))

    K_theta = kest(p.objective)
    K = np.array([kest(e) for e in p.inequalities]) if p.k else np.zeros(0)
    return K, K_theta


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
