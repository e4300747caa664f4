"""Stabilizing vector field on the feasible set.

Given the constraint Jacobians, the construction assembles the
null-space projector H of the equality gradients, the positive definite
matrix Q = B H B' - diag(g), the auxiliaries P, v and the diagonal gain
R3, and combines them into a descent field F whose equilibria are
exactly the KKT points.  The dissipation identity gives the decrease
rate of the objective along the field in closed form.

The construction is assembled for a block of N points at once
(``field_block``), so the Euler flow advances all its trajectories with
one assembly per step.  The expression kernels run point by point on
Python floats.  The linear algebra runs on stacked (N, ., .) arrays, where
each slice makes the BLAS call that a single point makes and LAPACK runs
once per slice, so a point gets the same bits whatever N is.
``field_eval`` is the N = 1 case.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy

from .exprlang import ExprError, evaluate, evaluate_stack, grad
from .model import FIELD_FEAS_TOL


class FieldError(RuntimeError):
    pass


class ConstraintQualificationError(FieldError):
    """A Cholesky factorization failed: LICQ violated or point infeasible."""


class InfeasiblePointError(FieldError):
    pass


def _load_flapack():
    """SciPy's compiled LAPACK extension, loaded without its package.

    ``import scipy.linalg`` runs all of ``scipy/linalg/__init__.py``: 0.27 to
    0.34 s and 27 MB of peak memory in a fresh interpreter that has already
    imported NumPy and SciPy (2-core x86-64 host, SciPy 1.17), about 60% of
    every command's start-up.  The extension alone is found and created
    from SciPy's ``linalg`` directory; ``import scipy`` above does SciPy's
    platform set-up first.  The module is entered in ``sys.modules`` under
    its own name, so a later ``import scipy.linalg`` reuses it.  If SciPy
    ships no such module, this raises ImportError naming it; there is no
    other way to load LAPACK.
    """
    name = "scipy.linalg._flapack"
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"nlpflow needs SciPy's compiled LAPACK module {name}, "
                          "which this SciPy does not have", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# LAPACK's Cholesky factorization and triangular solves for float64
# (dpotrf, dpotrs), called without scipy.linalg's checking wrappers: the
# objects that ``get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)``
# returns.
_flapack = _load_flapack()
_potrf, _potrs = _flapack.dpotrf, _flapack.dpotrs


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
    """Every quantity of the field construction at one point.

    ``field_block`` returns the arrays and theta stacked over a block of
    points, under the same names.
    """

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


class FieldBlock(namedtuple("FieldBlock", "x theta grad_theta h g A B H Q P v vplus r3 F w omega xi")):
    """FieldEval's arrays and theta, in its field order, stacked over a
    block of points: what ``field_block`` returns."""

    __slots__ = ()

    def row(self, j, params):
        """The FieldEval of row ``j``."""
        dtheta_F = float(self.grad_theta[j].dot(self.F[j]))
        return FieldEval(*[value[j] for value in self], dtheta_F, params)


def _diag(d, N, k):
    """N stacked k x k diagonal matrices, with the rows of ``d`` (or the
    scalar ``d``) on their diagonals."""
    out = np.zeros((N, k, k))
    out.reshape(N, k * k)[:, ::k + 1] = d
    return out


def _mv(M, v):
    """Stacked matrix-vector products M_j @ v_j.

    Each slice makes the gemv call that ``M_j @ v_j`` makes on its own.
    """
    return (M @ v[..., None])[..., 0]


def _gain_terms(params, vplus, extra):
    """c_i * v+_i^(2 p_i + extra) at each row of the stack v+, and 0 where
    c_i = 0, the default: there the power may overflow, and 0 * inf is NaN."""
    out = np.zeros(vplus.shape)
    on = params.c > 0
    if on.any():
        out[:, on] = params.c[on] * vplus[:, on] ** (2 * params.p[on] + extra)
    return out


def _factors(S, name, failure, failed):
    """Lower Cholesky factors of the symmetric slices of the stack ``S``,
    called ``name``, by one LAPACK call per slice.

    A slice fails with a FieldError if it is not finite, and with a
    ConstraintQualificationError, carrying the message ``failure`` and its
    smallest eigenvalue, if LAPACK cannot factor it.  ``failed`` maps each
    failed slice to its first error; such a slice gets an identity factor,
    so the stacked arithmetic can go on.
    """
    all_finite = np.isfinite(S).all()
    out = []
    for j in range(len(S)):  # indexing, not iterating: iterating a stack costs more
        s = S[j]
        if j not in failed:
            if not (all_finite or np.isfinite(s).all()):
                failed[j] = FieldError(f"{name} is not finite: its assembly overflowed")
            else:
                c, info = _potrf(s, lower=True, clean=False)
                if info == 0:
                    out.append(c)
                    continue
                pivot = float(np.linalg.eigvalsh(s).min())
                failed[j] = ConstraintQualificationError(failure.format(pivot=pivot))
        out.append(np.eye(len(s)))
    return out


def _solves(factors, R):
    """The solutions X_j of S_j X_j = R_j, stacked, from the factors of S_j.

    potrs returns each X_j in Fortran order.  The slices keep that layout,
    because OpenBLAS picks its gemv kernel by layout, and the two kernels
    round differently.
    """
    N, k, n = R.shape
    Xt = np.empty((N, n, k))
    for j in range(N):
        x, _ = _potrs(factors[j], R[j], lower=True)  # info is non-zero only for a bad argument
        Xt[j] = x.T
    return Xt.transpose(0, 2, 1)


def _projectors(A, failed):
    """Null-space projectors of the slices of the (N, m, n) stack ``A``."""
    N, m, n = A.shape
    if m == 0:
        return _diag(1.0, N, n)
    gram = A @ A.transpose(0, 2, 1)
    factors = _factors(gram, "the Gram matrix of the equality gradients",
                       "equality gradients are rank deficient (smallest pivot {pivot:.3e})",
                       failed)
    H = np.eye(n) - A.transpose(0, 2, 1) @ _solves(factors, A)
    return 0.5 * (H + H.transpose(0, 2, 1))


def projector_h(A):
    """Orthogonal projector onto the null space of the stacked rows of A.

    Solves the m x m symmetric system by Cholesky; a factorization
    failure signals rank deficiency of A (an LICQ violation).
    """
    failed = {}
    with np.errstate(over="ignore", invalid="ignore"):
        H = _projectors(np.asarray(A, dtype=float)[None], failed)
    if failed:
        raise failed[0]
    return H[0]


def field_block(p, params, X, feas_tol=FIELD_FEAS_TOL):
    """The field construction at every row of the (N, n) block ``X``.

    Returns ``(block, errors)``.  ``errors[r]`` is the FieldError or
    ExprError that ``field_eval`` raises at row r, or None.  ``block`` is
    a FieldBlock: theta and each FieldEval array at the rows without an
    error, stacked along a leading axis in row order.

    The expression kernels run row by row, on Python floats.  A row whose
    kernels fail, or whose constraint violation exceeds ``feas_tol``,
    leaves the block there.  The linear algebra is stacked: each slice
    makes the BLAS call that one point's 2-D arithmetic makes, and LAPACK
    runs once per slice, so a row has the same bits whatever N is.
    """
    X = np.asarray(X, dtype=float)
    n, m, k = p.n, p.m, p.k
    errors = [None] * len(X)
    kept, values, thetas, grads = [], [], [], []
    for r, x in enumerate(X.tolist()):
        try:
            vals = evaluate_stack(p.constraint_stack, x)
            worst = max(max(map(abs, vals[:m]), default=0.0), max(vals[m:], default=0.0))
            if worst > feas_tol:
                raise InfeasiblePointError(
                    f"point infeasible: max constraint violation {worst:.3e} > {feas_tol:.1e}")
            theta = evaluate(p.objective, x)
            rows = [grad(e, x) for e in (p.objective, *p.equalities, *p.inequalities)]
        except (FieldError, ExprError) as exc:
            errors[r] = exc
            continue
        kept.append(r)
        values.append(vals)
        thetas.append(theta)
        grads.append(rows)

    N = len(kept)
    vals = np.array(values, dtype=float).reshape(N, m + k)
    h, g = vals[:, :m], vals[:, m:]
    G = np.array(grads, dtype=float).reshape(N, 1 + m + k, n)
    gtheta, A, B = G[:, 0], G[:, 1:1 + m], G[:, 1 + m:]
    failed = {}  # slice -> the first FieldError of its linear algebra
    # A failed slice goes on with an identity factor, so its arithmetic can
    # overflow; large gains can overflow F and w.  The finiteness checks and
    # ``failed`` report both, so numpy's warnings would only repeat them.
    with np.errstate(over="ignore", invalid="ignore"):
        H = _projectors(A, failed)
        C = B @ H
        D = _diag(g, N, k)
        Q = C @ B.transpose(0, 2, 1) - D
        Q = 0.5 * (Q + Q.transpose(0, 2, 1))
        if k == 0:
            P = np.zeros((N, 0, n))
            v = vplus = r3 = w = omega = np.zeros((N, 0))
            M = H
        else:
            cho = _factors(Q, "Q", "Q is not positive definite (smallest pivot {pivot:.3e}): "
                                   "LICQ violated or point infeasible", failed)
            P = _solves(cho, C)
            v = _mv(P, gtheta)
            vplus = np.maximum(0.0, v)
            M = H - C.transpose(0, 2, 1) @ P  # H - P'QP
        xi = _mv(M, gtheta)
        R1xi = _mv(params.R1, xi)
        F = _mv(-M, R1xi)
        if k:
            # Row-shaped gains: a (1, k) row broadcasts over the stack at
            # less cost than a (k,) vector.
            a, b = params.a[None], params.b[None]
            r3 = b + _gain_terms(params, vplus, 0)
            mixed = _mv(params.R2, g * v) - a * v  # (R2 diag(g) - diag(a)) v
            r3v = r3 * vplus
            Pt = P.transpose(0, 2, 1)
            F = F - _mv(Pt, g * mixed) - _mv(Pt, r3v)
            w = _mv(C, R1xi) - _mv(Q + D, mixed) - r3v
            omega = np.array([_potrs(cho[j], w[j], lower=True)[0] for j in range(N)]).reshape(N, k)
    if not (np.isfinite(F).all() and np.isfinite(w).all()):
        for name, value in (("the field F", F), ("the vector w", w)):
            for j in np.flatnonzero(~np.isfinite(value).all(axis=1)):
                failed.setdefault(j, FieldError(f"{name} is not finite: its assembly overflowed"))

    block = FieldBlock(X if N == len(X) else X[kept], np.array(thetas, dtype=float), gtheta,
                       h, g, A, B, H, Q, P, v, vplus, r3, F, w, omega, xi)
    if failed:
        for j, exc in failed.items():
            errors[kept[j]] = exc
        ok = [j for j in range(N) if j not in failed]
        block = FieldBlock(*(value[ok] for value in block))
    return block, errors


def point_block(p, params, x, feas_tol=FIELD_FEAS_TOL):
    """The one-row FieldBlock of the point ``x``: the N = 1 case of
    ``field_block``, which raises the row's error if it has one."""
    block, (error,) = field_block(p, params, np.asarray(x, dtype=float)[None], feas_tol)
    if error is not None:
        raise error
    return block


def field_eval(p, params, x, feas_tol=FIELD_FEAS_TOL):
    """Evaluate the stabilizing field and all auxiliaries at ``x``.

    ``x`` must be feasible to ``feas_tol``; the field is only defined
    near the feasible set.
    """
    return point_block(p, params, x, feas_tol).row(0, params)


def dissipation_rates(params, xi, g, v, vplus):
    """Objective decrease rate along the field, assembled term by term, at
    each row of the stacked FieldEval arrays xi, g, v and v+.

    Always non-positive on the feasible set; equals the direct dot
    product grad(theta) . F there.  A row has the bits of the same sum
    taken at its point alone.
    """
    rate = -np.vecdot(xi, _mv(params.R1, xi))
    if g.shape[1]:
        gv = g * v
        rate -= np.vecdot(gv, _mv(params.R2, gv))
        rate -= np.sum(params.a * np.abs(g) * v ** 2, axis=1)
        rate -= np.sum(params.b * vplus ** 2, axis=1)
        rate -= np.sum(_gain_terms(params, vplus, 2), axis=1)
    return rate


def dissipation(fe):
    """Objective decrease rate along the field at one point: the one-row
    case of ``dissipation_rates``."""
    return float(dissipation_rates(fe.params, fe.xi[None], fe.g[None], fe.v[None],
                                   fe.vplus[None])[0])


def norms(F):
    """|F| of each vector along the last axis of ``F``, which must be finite.

    Where the dot product F.F is finite this is its square root: the bits
    of ``np.linalg.norm`` of the vector.  A vector whose dot product
    overflows is divided by its largest |F_i| first, so its norm is finite
    unless it exceeds the largest float.
    """
    F = np.asarray(F, dtype=float)
    with np.errstate(over="ignore"):
        out = np.array(np.sqrt(np.vecdot(F, F)))
        big = np.isinf(out)
        if big.any():
            scale = np.abs(F[big]).max(axis=-1)
            unit = F[big] / scale[..., None]
            out[big] = scale * np.sqrt(np.vecdot(unit, unit))
    return out
