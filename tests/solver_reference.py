"""Reference per-expression forms of the solver's curvature scan, ray
sampler, inexact projection and facet snap.

``curvature_scan`` and ``active_index_set`` are ``_curvature_scan`` and
``active_index_set`` as they were before the ray polynomials replaced
their samples: the slope along F as ``grad . F`` at each of the scan's
points, and the value of each g_j at RAY_SAMPLES points of the ray, with
the sampler's curvature lift, on NumPy arrays.  The ray sampler's active
set must be the same, and the scan must agree within a bound tied to
rounding.  ``project_inexact`` takes the least-norm Newton steps of
``_newton_project`` with one ``evaluate`` and one ``grad`` call per
expression; the stacked version must return the same bits.

``snap_to_facets`` is r35's snap as it was before the one least-norm
projection replaced it: up to SNAP_SWEEPS sweeps of one Newton step per
constraint in the band.  Where at most one facet is in the band, the
projection must return its point and moved flag bit for bit.
"""

import numpy as np

from nlpflow.exprlang import evaluate, grad
from nlpflow.solver import (CURV_SEGMENTS, FEAS_TOL, PROJECTION_MAX_INNER, SNAP_BAND,
                            SNAP_SWEEPS, ProjectionFailure)

# Points at which the ray sampler took the values of each g_j.
RAY_SAMPLES = 9


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
    """``(K, K_theta, sizes)``: the scan's estimates, and for theta and each
    g_j the largest sum of |d_i e| |F_i| over the points, the size of a
    slope that sets its rounding."""
    x = np.asarray(x, dtype=float)
    ss = np.linspace(0.0, span, CURV_SEGMENTS + 1)
    ds = span / CURV_SEGMENTS
    sizes = []

    def kest(expr):
        grads = [np.asarray(grad(expr, x + s * fe.F)) for s in ss]
        slopes = [float(g @ fe.F) for g in grads]
        sizes.append(max(float(np.abs(g) @ np.abs(fe.F)) for g in grads))
        worst = float(np.max(np.diff(slopes))) / ds
        chord = (slopes[-1] - slopes[0]) / span
        return max(0.0, 0.5 * (worst + chord))

    K_theta = kest(p.objective)
    K = np.array([kest(e) for e in p.inequalities]) if p.k else np.zeros(0)
    return K, K_theta, sizes


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
