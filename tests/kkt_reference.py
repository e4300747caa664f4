"""Reference KKT residuals, one point at a time.

The oracle for ``kkt.kkt_residuals`` and its one-row case
``kkt.kkt_residual``: the earlier one-point formula on 2-D NumPy
arithmetic, with the gradients, the Jacobians and the constraint values
taken at the point alone.
"""

import numpy as np

from nlpflow.exprlang import grad
from nlpflow.model import jacobians, residuals


def kkt_residuals(p, x, lam, mu):
    """(stationarity, complementarity, mu-negativity) at ``x`` as floats."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    gtheta = np.asarray(grad(p.objective, x), dtype=float)
    A, B = jacobians(p, x)
    _, g = residuals(p, x)

    stat = gtheta.copy()
    if p.m:
        stat += A.T @ lam
    if p.k:
        stat += B.T @ mu
    stationarity = float(np.linalg.norm(stat))
    complementarity = float(abs(mu @ g)) if p.k else 0.0
    mu_neg = float(abs(min(0.0, mu.min()))) if p.k else 0.0
    return stationarity, complementarity, mu_neg
