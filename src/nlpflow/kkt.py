"""Lagrange multiplier recovery and KKT residuals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import grad
from .field import field_eval
from .model import jacobians, residuals


@dataclass(frozen=True)
class KktReport:
    lam: np.ndarray
    mu: np.ndarray
    stationarity_residual: float
    complementarity_residual: float
    mu_negativity: float
    is_critical: bool


def multipliers(p, x, fe):
    """Dual estimates at ``x`` from a field evaluation.

    mu is the inequality multiplier (-v) clipped at zero; at critical
    points v <= 0 so the clip is inactive and mu = -v exactly.  lam
    solves the stationarity equation in the least-squares sense.
    """
    mu = np.maximum(0.0, -fe.v)
    if p.m == 0:
        return np.zeros(0), mu
    rhs = -(fe.grad_theta + fe.B.T @ mu)
    lam, _, rank, _ = np.linalg.lstsq(fe.A.T, rhs, rcond=None)
    if rank < p.m:
        raise np.linalg.LinAlgError("equality Jacobian is rank deficient")
    return lam, mu


def kkt_residual(p, x, lam, mu, tol=1e-6):
    """KKT residual report at ``x`` for the supplied multipliers."""
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
    critical = (stationarity <= tol and complementarity <= tol and mu_neg <= tol)
    return KktReport(lam=lam, mu=mu, stationarity_residual=stationarity,
                     complementarity_residual=complementarity,
                     mu_negativity=mu_neg, is_critical=bool(critical))


def report_at(p, x, params, tol=1e-6):
    """Convenience: field evaluation, multipliers and residuals in one call."""
    fe = field_eval(p, params, x)
    lam, mu = multipliers(p, x, fe)
    return kkt_residual(p, x, lam, mu, tol=tol)
