"""Lagrange multiplier recovery and KKT residuals.

``kkt_residuals`` is arithmetic on the columns of a field block, which
hold every input, so it runs no expression kernel.  Each row makes the
BLAS calls that one point's 2-D arithmetic makes, so a row gets the bits
it gets alone.  ``kkt_residual`` is its one-row case at a point, which
gathers that point's values itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import grad
# Unused: test_tracing_wraps_every_import_site_and_restores_them traces kkt.field_eval.
from .field import _mv, field_eval  # noqa: F401
from .model import jacobians, residuals

# A KKT report is critical when all three residuals are at most this.
CRITICAL_TOL = 1e-6


@dataclass(frozen=True)
class KktReport:
    lam: np.ndarray
    mu: np.ndarray
    stationarity_residual: float
    complementarity_residual: float
    mu_negativity: float
    is_critical: bool


def equality_multipliers(p, grad_theta, A, B, mu):
    """lam at one point: the least-squares solution of the stationarity
    equation A' lam = -(grad(theta) + B' mu), given mu."""
    if p.m == 0:
        return np.zeros(0)
    rhs = -(grad_theta + B.T @ mu)
    lam, _, rank, _ = np.linalg.lstsq(A.T, rhs, rcond=None)
    if rank < p.m:
        raise np.linalg.LinAlgError("equality Jacobian is rank deficient")
    return lam


def multipliers(p, fe):
    """Dual estimates from the field ``fe`` at a point.

    mu is the inequality multiplier (-v) clipped at zero; at critical
    points v <= 0 so the clip is inactive and mu = -v exactly.  lam
    solves the stationarity equation in the least-squares sense.
    """
    mu = np.maximum(0.0, -fe.v)
    return equality_multipliers(p, fe.grad_theta, fe.A, fe.B, mu), mu


def kkt_residuals(grad_theta, A, B, g, lam, mu):
    """Stationarity, complementarity and mu-negativity residuals at each
    row of a block: three arrays of N floats.

    The inputs are FieldBlock columns: grad(theta) (N, n), the constraint
    Jacobians A (N, m, n) and B (N, k, n) and the inequality values g
    (N, k), with the multiplier rows ``lam`` (N, m) and ``mu`` (N, k).
    None of them is written.  The stationarity residual is
    |grad(theta) + A' lam + B' mu| as ``np.linalg.norm`` takes it, inf
    where the square overflows; complementarity is |mu . g|, and
    mu-negativity |min(0, min mu)|, where a NaN mu counts as 0, as
    Python's ``min`` takes it.
    """
    N, m, k = len(grad_theta), A.shape[1], B.shape[1]
    mu = np.reshape(mu, (N, k))
    stat = np.array(grad_theta, dtype=float)  # a copy: the sums below update it
    stat += _mv(A.transpose(0, 2, 1), np.reshape(lam, (N, m)))
    stat += _mv(B.transpose(0, 2, 1), mu)
    with np.errstate(over="ignore"):
        stationarity = np.sqrt(np.vecdot(stat, stat))
    if not k:  # mu.min over an empty axis raises
        return stationarity, np.zeros(N), np.zeros(N)
    least = mu.min(axis=1)
    return stationarity, np.abs(np.vecdot(mu, g)), np.where(least < 0.0, -least, 0.0)


def kkt_residual(p, x, lam, mu):
    """KKT residual report at ``x`` for the supplied multipliers, critical
    to CRITICAL_TOL: the one-row case of ``kkt_residuals``, on the
    point's grad(theta), Jacobians and constraint values, in that order."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    grad_theta = np.array(grad(p.objective, x), dtype=float)
    A, B = jacobians(p, x)
    _, g = residuals(p, x)
    stationarity, complementarity, mu_neg = (float(r[0]) for r in kkt_residuals(
        grad_theta[None], A[None], B[None], g[None], lam[None], mu[None]))
    critical = all(r <= CRITICAL_TOL for r in (stationarity, complementarity, mu_neg))
    return KktReport(lam=lam, mu=mu, stationarity_residual=stationarity,
                     complementarity_residual=complementarity,
                     mu_negativity=mu_neg, is_critical=bool(critical))
