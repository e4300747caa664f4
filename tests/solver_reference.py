"""Reference per-expression forms of the solver's curvature scan, ray
sampler and inexact projection.

These are ``_curvature_scan``, ``active_index_set`` and ``project_inexact``
as they were before the problem's expressions were stacked into one
kernel: one ``jvp_block`` or ``evaluate`` call per expression per point, and the
ray sampler's test on NumPy arrays.  They are kept for tests only: the
stacked versions must return the same bits.
"""

import numpy as np

from nlpflow.exprlang import evaluate, grad, jvp_block
from nlpflow.solver import (CURV_SEGMENTS, FEAS_TOL, PROJECTION_MAX_INNER, RAY_SAMPLES,
                            ProjectionFailure)


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


def project_inexact(target, p, indices):
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
