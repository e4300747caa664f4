"""Lagrange multiplier recovery and KKT residuals.

``kkt_residuals`` takes the residuals at a block of points: the
expression kernels run point by point on Python floats, and the
residual arithmetic runs on stacked arrays, where each row makes the
BLAS calls that one point's 2-D arithmetic makes, so a row gets the bits
it gets alone.  ``kkt_residual`` is its one-row case, as ``field_eval``
is of ``field_block``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import evaluate_block, grad
from .field import _mv, field_eval
from .model import jacobians

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


def multipliers(p, x, fe):
    """Dual estimates at ``x`` from a field evaluation.

    mu is the inequality multiplier (-v) clipped at zero; at critical
    points v <= 0 so the clip is inactive and mu = -v exactly.  lam
    solves the stationarity equation in the least-squares sense.
    """
    mu = np.maximum(0.0, -fe.v)
    return equality_multipliers(p, fe.grad_theta, fe.A, fe.B, mu), mu


def kkt_residuals(p, X, lam, mu):
    """Stationarity, complementarity and mu-negativity residuals at each
    row of the (N, n) block ``X``, for the multiplier rows of ``lam``
    (N, m) and ``mu`` (N, k): three arrays of N floats.

    Each row takes grad(theta) and the constraint Jacobians from its own
    kernel runs, and every constraint value from one runner call over
    the block.  The stationarity residual is |grad(theta) + A' lam + B' mu|
    as ``np.linalg.norm`` takes it, inf where the square overflows;
    complementarity is |mu . g|, and mu-negativity |min(0, min mu)|,
    where a NaN mu counts as 0, as Python's ``min`` takes it.
    """
    X = np.asarray(X, dtype=float)
    N, n, m, k = len(X), p.n, p.m, p.k
    G, A, B = [], [], []
    for x in X:
        G.append(grad(p.objective, x))
        a, b = jacobians(p, x)
        A.append(a)
        B.append(b)
    stat = np.array(G, dtype=float).reshape(N, n)
    if m:
        stat += _mv(np.reshape(A, (N, m, n)).transpose(0, 2, 1), np.reshape(lam, (N, m)))
    if k:
        mu = np.reshape(mu, (N, k))
        stat += _mv(np.reshape(B, (N, k, n)).transpose(0, 2, 1), mu)
    with np.errstate(over="ignore"):
        stationarity = np.sqrt(np.vecdot(stat, stat))
    if not k:
        return stationarity, np.zeros(N), np.zeros(N)
    g = np.array(evaluate_block(p.constraint_stack, X), dtype=float).reshape(N, m + k)[:, m:]
    least = mu.min(axis=1)
    return stationarity, np.abs(np.vecdot(mu, g)), np.where(least < 0.0, -least, 0.0)


def kkt_residual(p, x, lam, mu):
    """KKT residual report at ``x`` for the supplied multipliers: the
    one-row case of ``kkt_residuals``, critical to CRITICAL_TOL."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    stationarity, complementarity, mu_neg = (float(r[0]) for r in kkt_residuals(
        p, x[None], lam[None], mu[None]))
    critical = all(r <= CRITICAL_TOL for r in (stationarity, complementarity, mu_neg))
    return KktReport(lam=lam, mu=mu, stationarity_residual=stationarity,
                     complementarity_residual=complementarity,
                     mu_negativity=mu_neg, is_critical=bool(critical))


def report_at(p, x, params):
    """Convenience: field evaluation, multipliers and residuals in one call."""
    fe = field_eval(p, params, x)
    lam, mu = multipliers(p, x, fe)
    return kkt_residual(p, x, lam, mu)
