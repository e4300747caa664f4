"""Stabilizing vector field on the feasible set.

Given the constraint Jacobians, the construction assembles the
null-space projector H of the equality gradients, the positive definite
matrix Q = B H B' - diag(g), the auxiliaries P, v and the diagonal gain
R3, and combines them into a descent field F whose equilibria are
exactly the KKT points.  The dissipation identity gives the decrease
rate of the objective along the field in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .exprlang import evaluate, grad
from .model import FIELD_FEAS_TOL, jacobians, residuals


class FieldError(RuntimeError):
    pass


class ConstraintQualificationError(FieldError):
    """A Cholesky factorization failed: LICQ violated or point infeasible."""


class InfeasiblePointError(FieldError):
    pass


# LAPACK's Cholesky factorization and triangular solves for float64
# (dpotrf, dpotrs), called without scipy.linalg's checking wrappers.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _cholesky(S, name, failure):
    """Lower Cholesky factor of the symmetric matrix ``S``, called ``name``.

    A non-finite ``S`` raises FieldError.  A factorization failure raises
    ConstraintQualificationError with the message ``failure`` and the
    smallest eigenvalue of ``S``.
    """
    if not np.isfinite(S).all():
        raise FieldError(f"{name} is not finite: its assembly overflowed")
    c, info = _potrf(S, lower=True, clean=False)
    if info > 0:
        pivot = float(np.linalg.eigvalsh(S).min())
        raise ConstraintQualificationError(failure.format(pivot=pivot))
    return c


def _cho_solve(c, rhs):
    """Solve S X = rhs from the lower Cholesky factor ``c`` of S."""
    x, _ = _potrs(c, rhs, lower=True)  # info is non-zero only for a bad argument
    return x


class FieldParams:
    """Free design data of the field construction.

    R1 must be symmetric positive definite, R2 symmetric positive
    semidefinite, a/b/c non-negative with b_i + c_i > 0, p_i >= 1
    integers, and at least one of R2 or diag(a) positive definite.
    Arrays are copied and frozen.
    """

    def __init__(self, R1, R2, a, b, c, p):
        self.R1 = np.array(R1, dtype=float)
        self.R2 = np.array(R2, dtype=float)
        self.a = np.array(a, dtype=float)
        self.b = np.array(b, dtype=float)
        self.c = np.array(c, dtype=float)
        self.p = np.array(p, dtype=int)
        self._validate()
        for arr in (self.R1, self.R2, self.a, self.b, self.c, self.p):
            arr.setflags(write=False)

    @classmethod
    def default(cls, n, k, sigma=1.0):
        """R1 = sigma*I, R2 = 0, a = b = 1, c = 0, p = 1."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return cls(sigma * np.eye(n), np.zeros((k, k)),
                   np.ones(k), np.ones(k), np.zeros(k), np.ones(k, dtype=int))

    def _validate(self):
        k = self.a.shape[0]
        if self.R2.shape != (k, k) or any(v.shape != (k,) for v in (self.b, self.c, self.p)):
            raise ValueError("inconsistent parameter dimensions")
        if not np.allclose(self.R1, self.R1.T):
            raise ValueError("R1 must be symmetric")
        if np.linalg.eigvalsh(self.R1).min() <= 0:
            raise ValueError("R1 must be positive definite")
        if k:
            if not np.allclose(self.R2, self.R2.T):
                raise ValueError("R2 must be symmetric")
            r2_min = np.linalg.eigvalsh(self.R2).min()
            if r2_min < -1e-12:
                raise ValueError("R2 must be positive semidefinite")
            if np.min(self.a) < 0 or np.min(self.b) < 0 or np.min(self.c) < 0:
                raise ValueError("a, b, c must be non-negative")
            if np.min(self.b + self.c) <= 0:
                raise ValueError("b_i + c_i must be positive for every i")
            if np.min(self.p) < 1:
                raise ValueError("exponents p_i must be integers >= 1")
            if not (r2_min > 0 or np.min(self.a) > 0):
                raise ValueError("either R2 positive definite or all a_i > 0")


@dataclass(frozen=True)
class FieldEval:
    """Every quantity of the field construction at one point."""

    x: np.ndarray
    theta: float
    grad_theta: np.ndarray
    h: np.ndarray
    g: np.ndarray
    A: np.ndarray
    B: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    v: np.ndarray
    vplus: np.ndarray
    r3: np.ndarray  # diagonal of R3
    F: np.ndarray
    w: np.ndarray
    omega: np.ndarray
    xi: np.ndarray  # grad_theta projected through H - P'QP
    dtheta_F: float  # direct dot product grad_theta . F
    params: FieldParams


def projector_h(A):
    """Orthogonal projector onto the null space of the stacked rows of A.

    Solves the m x m symmetric system by Cholesky; a factorization
    failure signals rank deficiency of A (an LICQ violation).
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if m == 0:
        return np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A @ A.T
    c = _cholesky(gram, "the Gram matrix of the equality gradients",
                  "equality gradients are rank deficient (smallest pivot {pivot:.3e})")
    H = np.eye(n) - A.T @ _cho_solve(c, A)
    return 0.5 * (H + H.T)


def _q_factor(C, B, g):
    """Q = B H B' - diag(g) from C = B H, and its Cholesky factor (None
    when k = 0).

    Q must be positive definite on the feasible set.
    """
    k = B.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        Q = C @ B.T - np.diag(g)
        Q = 0.5 * (Q + Q.T)
    if k == 0:
        return Q, None
    return Q, _cholesky(Q, "Q", "Q is not positive definite (smallest pivot {pivot:.3e}): "
                                "LICQ violated or point infeasible")


def field_eval(p, params, x, feas_tol=FIELD_FEAS_TOL):
    """Evaluate the stabilizing field and all auxiliaries at ``x``.

    ``x`` must be feasible to ``feas_tol``; the field is only defined
    near the feasible set.
    """
    x = np.asarray(x, dtype=float)
    h, g = residuals(p, x)
    worst = max(np.max(np.abs(h)) if h.size else 0.0,
                np.max(g) if g.size else 0.0)
    if worst > feas_tol:
        raise InfeasiblePointError(
            f"point infeasible: max constraint violation {worst:.3e} > {feas_tol:.1e}")

    theta = evaluate(p.objective, x)
    gtheta = np.asarray(grad(p.objective, x), dtype=float)
    A, B = jacobians(p, x)
    H = projector_h(A)
    n, k = p.n, p.k

    C = B @ H
    Q, cho = _q_factor(C, B, g)
    if k == 0:
        P = np.zeros((0, n))
        v = vplus = r3 = w = omega = np.zeros(0)
        M = H
    else:
        P = _cho_solve(cho, C)
        v = P @ gtheta
        vplus = np.maximum(0.0, v)
        M = H - C.T @ P  # H - P'QP
    xi = M @ gtheta
    # Large gains can overflow F and w; that is reported below as a
    # FieldError, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        R1xi = params.R1 @ xi
        F = -M @ R1xi
        if k:
            r3 = params.b + params.c * vplus ** (2 * params.p)
            mixed = params.R2 @ (g * v) - params.a * v  # (R2 diag(g) - diag(a)) v
            F = F - P.T @ (g * mixed) - P.T @ (r3 * vplus)
            w = C @ R1xi - (Q + np.diag(g)) @ mixed - r3 * vplus
    if not np.isfinite(F).all():
        raise FieldError("the field F is not finite: its assembly overflowed")
    if k:
        if not np.isfinite(w).all():
            raise FieldError("the vector w is not finite: its assembly overflowed")
        omega = _cho_solve(cho, w)

    dtheta_F = float(gtheta @ F)
    return FieldEval(x=x, theta=theta, grad_theta=gtheta, h=h, g=g, A=A, B=B,
                     H=H, Q=Q, P=P, v=v, vplus=vplus, r3=r3, F=F, w=w,
                     omega=omega, xi=xi, dtheta_F=dtheta_F, params=params)


def dissipation(fe):
    """Objective decrease rate along the field, assembled term by term.

    Always non-positive on the feasible set; equals the direct dot
    product grad(theta) . F there.
    """
    pr = fe.params
    rate = -float(fe.xi @ (pr.R1 @ fe.xi))
    if fe.g.size:
        gv = fe.g * fe.v
        rate -= float(gv @ (pr.R2 @ gv))
        rate -= float(np.sum(pr.a * np.abs(fe.g) * fe.v ** 2))
        rate -= float(np.sum(pr.b * fe.vplus ** 2))
        rate -= float(np.sum(pr.c * fe.vplus ** (2 * pr.p + 2)))
    return rate
