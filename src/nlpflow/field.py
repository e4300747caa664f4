"""Stabilizing vector field on the feasible set.

Given the constraint Jacobians, the construction assembles the
null-space projector H of the equality gradients, the positive definite
matrix Q = B H B' - diag(g), the auxiliaries P, v and the diagonal gain
R3, and combines them into a descent field F whose equilibria are
exactly the KKT points.  The dissipation identity gives the decrease
rate of the objective along the field in closed form.

The construction has explicit formulae, so for a problem's (n, m, k) and
its gains one point's field is a fixed sequence of scalar operations.
``_generate`` writes that sequence out as straight-line Python, one
statement per operation: the Gram matrix of the equality gradients and
H, C = B H, Q = C B' - diag(g) symmetrized, its Cholesky factor, P, v,
v+, M = H - C'P, xi, R1 xi, r3, the mixed term, F, w and omega.  Only
exact constants are folded: H = I when m = 0, zero gains and the zero
entries of R1.  A gain's power of v+ is the expression kernels'
multiplication chain, written by ``exprlang._Chain``.  The source is
compiled once per (n, m, k) and gains, by value, and defined by
``exprlang._define`` for each of two runners: row by row on Python
floats, or on NumPy columns with one array per scalar of the
construction.  Both make the same IEEE
operations in the same order, so a point gets the same bits from either,
whatever the block's size.  No LAPACK routine runs.

The field is assembled for a block of N points at once (``field_block``),
so the Euler flow advances all its trajectories with one assembly per
step.  The expression kernels give the field's inputs first: from
``COLUMNS_FROM`` points (the one crossover of ``nlpflow.exprlang``) one
column run of the gradient kernel of theta, h and g, and below it, or
where that run gives up on the block, point by point on Python floats.
The field kernel then runs on the block.  ``field_eval`` is the N = 1
case: a point's field is one row of the block.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from collections import namedtuple

import numpy as np

from . import exprlang
from .exprlang import ExprError, evaluate, evaluate_stack, grad, gradient_columns
from .model import FIELD_FEAS_TOL

log = logging.getLogger(__name__)


class FieldError(RuntimeError):
    pass


class ConstraintQualificationError(FieldError):
    """A Cholesky factorization failed: LICQ violated or point infeasible."""


class InfeasiblePointError(FieldError):
    pass


class FieldParams:
    """Free design data of the field construction.

    R1 must be symmetric positive definite, R2 symmetric positive
    semidefinite, a/b/c non-negative with b_i + c_i > 0, p_i >= 1
    integers, and at least one of R2 or diag(a) positive definite; every
    gain is finite.  Arrays are copied and frozen.
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
        # The field kernel's cache key: the gains by value.
        self._key = (len(self.R1), *(tuple(arr.ravel().tolist()) for arr in
                                     (self.R1, self.R2, self.a, self.b, self.c, self.p)))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def default(cls, n, k, sigma=1.0):
        """R1 = sigma*I, R2 = 0, a = b = 1, c = 0, p = 1.

        One instance per (n, k, sigma) and process: it is frozen, so a
        repeat call returns it and validates nothing again.  A bad sigma
        raises on every call, since a call that raises is not kept.
        """
        if not 0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        return cls(sigma * np.eye(n), np.zeros((k, k)),
                   np.ones(k), np.ones(k), np.zeros(k), np.ones(k, dtype=int))

    def _validate(self):
        R1, R2, a, b, c, p = self.R1, self.R2, self.a, self.b, self.c, self.p
        if R1.ndim != 2 or R1.shape[0] != R1.shape[1]:
            raise ValueError("R1 must be square")
        if a.ndim != 1 or R2.shape != a.shape * 2 or any(v.shape != a.shape for v in (b, c, p)):
            raise ValueError("inconsistent parameter dimensions")
        k = a.shape[0]
        gains = np.concatenate((R1.ravel(), R2.ravel(), a, b, c))  # a, b, c last
        if not np.isfinite(gains).all():
            raise ValueError("gains must be finite")
        if not _symmetric_gain(R1):
            raise ValueError("R1 must be symmetric")
        if np.linalg.eigvalsh(R1).min() <= 0:
            raise ValueError("R1 must be positive definite")
        if k:
            if not _symmetric_gain(R2):
                raise ValueError("R2 must be symmetric")
            r2_min = np.linalg.eigvalsh(R2).min()
            if r2_min < -1e-12:
                raise ValueError("R2 must be positive semidefinite")
            if gains[-3 * k:].min() < 0:
                raise ValueError("a, b, c must be non-negative")
            if (b + c).min() <= 0:
                raise ValueError("b_i + c_i must be positive for every i")
            if p.min() < 1:
                raise ValueError("exponents p_i must be integers >= 1")
            if not (r2_min > 0 or a.min() > 0):
                raise ValueError("either R2 positive definite or all a_i > 0")


def _symmetric_gain(S):
    """``np.allclose(S, S.T)`` of a finite square S, written out: every
    |S - S'| <= 1e-8 + 1e-5 |S'|, the same IEEE operations."""
    T = S.T
    return bool((np.abs(S - T) <= 1e-8 + 1e-5 * np.abs(T)).all())


class FieldBlock(namedtuple("FieldBlock", "x theta grad_theta h g A B H Q P v vplus r3 F w omega xi")):
    """Every quantity of the field construction, stacked along a leading
    axis over a block of points, as ``field_block`` returns it; r3 is the
    diagonal of R3 and xi is grad(theta) projected through H - P'QP.
    ``row(j)`` is the field at the j-th point, under the same names."""

    __slots__ = ()

    def row(self, j):
        """The field at row ``j``: each quantity's j-th entry."""
        return FieldBlock(*(v[j] for v in self))


def _mv(M, v):
    """Stacked matrix-vector products M_j @ v_j.

    Each slice makes the gemv call that ``M_j @ v_j`` makes on its own.
    """
    return (M @ v[..., None])[..., 0]


def _gain_terms(params, vplus):
    """c_i * v+_i^(2 p_i + 2) at each row of the stack v+, and 0 where
    c_i = 0, the default: there the power may overflow, and 0 * inf is NaN."""
    out = np.zeros(vplus.shape)
    on = params.c > 0
    if on.any():
        out[:, on] = params.c[on] * vplus[:, on] ** (2 * params.p[on] + 2)
    return out


# ---------------------------------------------------------------------------
# The field kernel.

def _zero(a):
    return isinstance(a, float) and a == 0.0


def _text(a):
    """A name, or a constant as a literal that reads back to its bits."""
    return a if isinstance(a, str) else f"({a!r})"


class _Writer:
    """Straight-line code over names (str) and exact constants (float).

    Each arithmetic method writes one statement, one operation, and returns
    the name of its result.  An operation on constants alone is done here,
    and one that an exact 0 or 1 decides is left out: x*0 and 0*x are 0,
    x*1, x+0 and x-0 are x, and 0-x is -x.  Those constants are the
    construction's structural ones (H = I when m = 0, zero gains, the zeros
    of R1), so leaving them out changes at most the sign of a zero.  An
    operation already written, on the same operands in either order for +
    and *, is not written again: IEEE addition and multiplication commute
    bit for bit.

    ``exprlang._Chain`` writes r3's powers of v+ on ``lines`` too, under
    names of its own.
    """

    def __init__(self):
        self.lines = []
        self.ops = 0
        self.seen = {}  # expression -> name

    def emit(self, expression):
        if expression not in self.seen:
            self.seen[expression] = name = f"t{self.ops}"
            self.ops += 1
            self.lines.append(f"{name} = {expression}")
        return self.seen[expression]

    def mul(self, a, b):
        if isinstance(b, float):
            a, b = b, a  # a constant goes first
        if isinstance(b, float):
            return a * b
        if isinstance(a, str):
            return self.emit(" * ".join(sorted((a, b))))
        if a == 0.0:
            return 0.0
        return b if a == 1.0 else self.emit(f"{_text(a)} * {b}")

    def add(self, a, b):
        if isinstance(a, float) and isinstance(b, float):
            return a + b
        if _zero(a) or _zero(b):
            return b if _zero(a) else a
        return self.emit(" + ".join(sorted((_text(a), _text(b)))))

    def sub(self, a, b):
        if isinstance(a, float) and isinstance(b, float):
            return a - b
        if _zero(b):
            return a
        if _zero(a):
            return self.neg(b)
        return self.emit(f"{_text(a)} - {_text(b)}")

    def neg(self, a):
        return -a if isinstance(a, float) else self.emit(f"-{a}")

    def div(self, a, b):
        return self.emit(f"{_text(a)} / {b}")

    def call(self, function, *args):
        return self.emit(f"{function}({', '.join(map(str, args))})")

    def dot(self, xs, ys):
        """sum_i xs[i]*ys[i], added left to right."""
        total = 0.0
        for x, y in zip(xs, ys):
            total = self.add(total, self.mul(x, y))
        return total

    def check_finite(self, stage, entries):
        if entries:
            listed = "".join(f"{_text(e)}, " for e in entries)
            self.lines.append(f"_finite(fail, {stage}, ({listed}))")

    def cholesky(self, S, stage):
        """The lower Cholesky factor of the symmetric matrix whose lower
        triangle is ``S``; each pivot is checked as stage ``stage``."""
        L = [[None] * len(S) for _ in S]
        for j in range(len(S)):
            pivot = self.sub(S[j][j], self.dot(L[j][:j], L[j][:j]))
            L[j][j] = self.call("_root", "fail", stage, pivot)
            for i in range(j + 1, len(S)):
                L[i][j] = self.div(self.sub(S[i][j], self.dot(L[i][:j], L[j][:j])), L[j][j])
        return L

    def solve(self, L, rhs):
        """x with L L' x = rhs: forward, then back substitution."""
        k = len(L)
        y = []
        for i in range(k):
            y.append(self.div(self.sub(rhs[i], self.dot(L[i][:i], y)), L[i][i]))
        x = [None] * k
        for i in reversed(range(k)):
            x[i] = self.div(self.sub(y[i], self.dot([L[j][i] for j in range(i + 1, k)],
                                                    x[i + 1:])), L[i][i])
        return x


# The kernel's checks, in the order they run.  A row that fails one
# records its stage on ``fail`` and goes on with a unit pivot; the first
# stage recorded is its error.
_GRAM_FINITE, _GRAM_PIVOTS, _Q_FINITE, _Q_PIVOTS, _F_FINITE, _W_FINITE = range(1, 7)


def _symmetric(code, S):
    """0.5*(S + S') of a square matrix of names, with each mirror pair
    computed once; the diagonal is S's own."""
    n = len(S)
    out = [[S[r][c] if r == c else None for c in range(n)] for r in range(n)]
    for r in range(n):
        for c in range(r):
            out[r][c] = out[c][r] = code.mul(0.5, code.add(S[r][c], S[c][r]))
    return out


def _generate(n, m, k, R1, R2, a, b, c, p):
    """The source of ``kernel(row, fail)`` for a problem of size (n, m, k)
    with the gains R1 (n x n), R2 (k x k), a, b, c and p (row-major
    sequences), and its operation count.

    ``row`` holds one point's inputs in FieldBlock order (x, theta,
    grad_theta, h, g, A, B).  The kernel returns the block's other columns
    (H, Q, P, v, vplus, r3, F, w, omega, xi) and then the Gram matrix of
    the equality gradients, each matrix row by row, as one tuple.
    """
    code = _Writer()
    d = [f"d{i}" for i in range(n)]
    g = [f"g{j}" for j in range(k)]
    A = [[f"a{i}_{col}" for col in range(n)] for i in range(m)]
    B = [[f"b{j}_{col}" for col in range(n)] for j in range(k)]
    inputs = ["_"] * (n + 1) + d + ["_"] * m + g + sum(A, []) + sum(B, [])

    identity = [[float(r == col) for col in range(n)] for r in range(n)]
    if m:
        gram = [[code.dot(A[i], A[j]) for j in range(i + 1)] for i in range(m)]
        code.check_finite(_GRAM_FINITE, sum(gram, []))
        L = code.cholesky(gram, _GRAM_PIVOTS)
        X = [code.solve(L, [A[i][col] for i in range(m)]) for col in range(n)]  # by column
        H = _symmetric(code, [[code.sub(identity[r][col],
                                        code.dot([A[i][r] for i in range(m)], X[col]))
                               for col in range(n)] for r in range(n)])
        gram = [[gram[max(i, j)][min(i, j)] for j in range(m)] for i in range(m)]
    else:
        H, gram = identity, []
    C = [[code.dot(B[j], [H[r][col] for r in range(n)]) for col in range(n)] for j in range(k)]
    Q = _symmetric(code, [[code.sub(code.dot(C[i], B[j]), g[i] if i == j else 0.0)
                           for j in range(k)] for i in range(k)])
    code.check_finite(_Q_FINITE, [Q[i][j] for i in range(k) for j in range(i + 1)])
    LQ = code.cholesky(Q, _Q_PIVOTS)
    P = list(zip(*(code.solve(LQ, [C[j][col] for j in range(k)]) for col in range(n)))) if k else []
    v = [code.dot(P[j], d) for j in range(k)]
    vplus = [code.call("_pos", v[j]) for j in range(k)]
    M = [[code.sub(H[r][col], code.dot([C[j][r] for j in range(k)], [P[j][col] for j in range(k)]))
          for col in range(n)] for r in range(n)]
    xi = [code.dot(M[r], d) for r in range(n)]
    R1xi = [code.dot(R1[r * n:(r + 1) * n], xi) for r in range(n)]
    r3 = list(b)
    for j in range(k):
        if c[j]:
            chain = exprlang._Chain(code.lines, vplus[j], f"r{j}_")
            r3[j] = code.add(b[j], code.mul(c[j], chain(2 * p[j])))
            code.ops += len(chain.names) - 1  # its multiplications
    gv = [code.mul(g[j], v[j]) for j in range(k)] if any(R2) else [0.0] * k
    mixed = [code.sub(code.dot(R2[j * k:(j + 1) * k], gv), code.mul(a[j], v[j])) for j in range(k)]
    r3v = [code.mul(r3[j], vplus[j]) for j in range(k)]
    gm = [code.mul(g[j], mixed[j]) for j in range(k)]
    F = []
    for r in range(n):
        Pr = [P[j][r] for j in range(k)]
        F0 = code.neg(code.dot(M[r], R1xi))
        F.append(code.sub(code.sub(F0, code.dot(Pr, gm)), code.dot(Pr, r3v)))
    QD = [[code.add(Q[i][j], g[i]) if i == j else Q[i][j] for j in range(k)] for i in range(k)]
    w = [code.sub(code.sub(code.dot(C[j], R1xi), code.dot(QD[j], mixed)), r3v[j])
         for j in range(k)]
    code.check_finite(_F_FINITE, F)
    code.check_finite(_W_FINITE, w)
    omega = code.solve(LQ, w)

    outputs = [*sum(H, []), *sum(Q, []), *sum(map(list, P), []), *v, *vplus, *r3, *F, *w,
               *omega, *xi, *sum(gram, [])]
    body = [f"{''.join(f'{name}, ' for name in inputs)}= row", *code.lines,
            f"return ({''.join(f'{_text(value)}, ' for value in outputs)})"]
    return "def kernel(row, fail):\n" + "".join(f"    {line}\n" for line in body), code.ops


def _root_row(fail, stage, d):
    if d > 0.0:
        return math.sqrt(d)
    fail.append(stage)
    return 1.0


def _finite_row(fail, stage, entries):
    if not all(map(math.isfinite, entries)):
        fail.append(stage)


def _root_columns(fail, stage, d):
    ok = d > 0.0
    fail[~ok & (fail == 0)] = stage
    return np.sqrt(np.where(ok, d, 1.0))


def _finite_columns(fail, stage, entries):
    ok = True
    for e in entries:
        ok = ok & np.isfinite(e)
    fail[~ok & (fail == 0)] = stage


# The kernel's helpers, for Python floats and for NumPy columns: sqrt of a
# checked pivot, the finiteness check and v+ = max(0, v), which is +0.0
# unless v > 0.
_ROW_HELPERS = {"_root": _root_row, "_finite": _finite_row,
                "_pos": lambda v: v if v > 0.0 else 0.0}
_COLUMN_HELPERS = {"_root": _root_columns, "_finite": _finite_columns,
                   "_pos": lambda v: np.where(v > 0.0, v, 0.0)}


class _Kernel:
    """One compiled field kernel: ``rows`` and ``columns`` run the same
    source on a Python-float row and on NumPy columns.  A block's table is
    a record array of ``dtype``: the FieldBlock columns in order, then the
    Gram matrix of the equality gradients."""

    def __init__(self, n, m, k, gains):
        start = time.perf_counter()
        source, self.ops = _generate(n, m, k, *gains)
        code = compile(source, "<field kernel>", "exec")
        self.rows, self.columns = (exprlang._define(code, helpers)
                                   for helpers in (_ROW_HELPERS, _COLUMN_HELPERS))
        shapes = [(n,), (), (n,), (m,), (k,), (m, n), (k, n),  # the inputs
                  (n, n), (k, k), (k, n), (k,), (k,), (k,), (n,), (k,), (k,), (n,), (m, m)]
        self.dtype = np.dtype([(name, float, shape) for name, shape
                               in zip((*FieldBlock._fields, "gram"), shapes)])
        self.width = self.dtype.itemsize // 8
        self.inputs = sum(math.prod(shape) for shape in shapes[:7])
        log.debug("field kernel for (n, m, k) = (%d, %d, %d): %d operations, compiled in "
                  "%.1f ms; blocks of %d or more rows run on NumPy columns, others by row",
                  n, m, k, self.ops, 1e3 * (time.perf_counter() - start), exprlang.COLUMNS_FROM)


@functools.lru_cache(maxsize=64)
def _kernel(m, key):
    """The field kernel for m equality constraints and the gains whose
    ``FieldParams._key`` is ``key``: cached by value, so gains built again
    compile nothing."""
    n, *gains = key
    return _Kernel(n, m, len(gains[2]), gains)


_NOT_FINITE = {_GRAM_FINITE: "the Gram matrix of the equality gradients", _Q_FINITE: "Q",
               _F_FINITE: "the field F", _W_FINITE: "the vector w"}


def _stage_error(stage, record):
    """The error of a block record whose kernel run failed ``stage``."""
    if stage in _NOT_FINITE:
        return FieldError(f"{_NOT_FINITE[stage]} is not finite: its assembly overflowed")
    if stage == _GRAM_PIVOTS:
        S, failure = record["gram"], "equality gradients are rank deficient (smallest pivot {:.3e})"
    else:
        S, failure = record["Q"], ("Q is not positive definite (smallest pivot {:.3e}): "
                                   "LICQ violated or point infeasible")
    return ConstraintQualificationError(failure.format(float(np.linalg.eigvalsh(S).min())))


def _assemble(kernel, inputs):
    """Run ``kernel`` at each of ``inputs``: tuples of Python floats, or the
    rows of an array, that hold a point's x, theta, grad_theta, h, g, A and
    B, each flattened.  Returns ``(block, failed)``: ``failed`` maps the
    index of each row whose field fails to its FieldError, and ``block`` is
    the FieldBlock of the other rows, in order, as views of one record
    array."""
    N = len(inputs)
    if N < exprlang.COLUMNS_FROM:
        if isinstance(inputs, np.ndarray):
            inputs = list(map(tuple, inputs.tolist()))
        rows, stages = [], []
        for row in inputs:
            fail = []
            rows.append(row + kernel.rows(row, fail))
            stages.append(fail[0] if fail else 0)
        table = np.array(rows, dtype=float).reshape(N * kernel.width).view(kernel.dtype)
    else:
        table = np.empty(N, kernel.dtype)
        flat = table.view(float).reshape(N, kernel.width)
        flat[:, :kernel.inputs] = inputs
        stages = np.zeros(N, dtype=np.int8)
        # A failed row goes on with unit pivots, and large gains can
        # overflow F and w: the kernel's checks report both.
        with np.errstate(all="ignore"):
            out = kernel.columns(flat[:, :kernel.inputs].T, stages)
        for i, column in enumerate(out, start=kernel.inputs):
            flat[:, i] = column
    failed = {j: _stage_error(stage, table[j]) for j, stage in enumerate(stages) if stage}
    if failed:
        table = table[[j for j in range(N) if j not in failed]]
    return FieldBlock(*(table[name] for name in FieldBlock._fields)), failed


def projector_h(A):
    """Orthogonal projector onto the null space of the stacked rows of A,
    as the field kernel computes it.

    Solves the m x m symmetric system by Cholesky; a factorization
    failure signals rank deficiency of A (an LICQ violation).
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    kernel = _kernel(m, FieldParams.default(n, 0)._key)
    block, failed = _assemble(kernel, [(0.0,) * (2 * n + 1 + m) + tuple(A.ravel().tolist())])
    if failed:
        raise failed[0]
    return block.H[0]


def field_block(p, params, X, feas_tol=FIELD_FEAS_TOL):
    """The field construction at every row of the (N, n) block ``X``.

    Returns ``(block, errors)``.  ``errors[r]`` is the FieldError or
    ExprError that ``field_eval`` raises at row r, or None.  ``block`` is
    a FieldBlock of the rows without an error, in row order: row j of the
    block is the field that ``field_eval`` returns at its point.  Its
    columns are views of one array.

    From COLUMNS_FROM rows, one column run of the gradient kernel of the
    problem's ``field_stack`` gives every value and gradient of the block,
    with the bits of the row path below; where that run gives up on the
    block, or the block is narrower, the expression kernels run row by
    row.  A row whose kernels fail, or whose constraint violation exceeds
    ``feas_tol``, leaves the block there.  The field kernel then runs on
    the other rows: row by row below COLUMNS_FROM rows and on NumPy columns
    from there, which give a row the same bits.

    Gains sized for another problem, whose R1 is not n x n or whose a is
    not of length k, raise ValueError before any kernel runs.
    """
    if len(params.R1) != p.n or len(params.a) != p.k:
        raise ValueError(f"gains are sized for (n, k) = ({len(params.R1)}, {len(params.a)}), "
                         f"the problem has (n, k) = ({p.n}, {p.k})")
    X = np.asarray(X, dtype=float)
    m = p.m
    kernel = _kernel(m, params._key)
    errors = [None] * len(X)
    columns = gradient_columns(p.field_stack, X)
    if columns is not None:
        values, grads = columns
        worst = np.maximum(np.abs(values[:, 1:m + 1]).max(axis=1, initial=0.0),
                           values[:, m + 1:].max(axis=1, initial=0.0))
        for r in np.flatnonzero(worst > feas_tol).tolist():
            errors[r] = _infeasible(worst[r], feas_tol)
        kept = [r for r, error in enumerate(errors) if error is None]
        inputs = np.concatenate([X, values[:, :1], grads[:, 0], values[:, 1:],
                                 grads[:, 1:].reshape(len(X), (m + p.k) * p.n)], axis=1)[kept]
    else:
        # Per row, the constraint stack, the objective and one grad run per
        # expression.  Moving rows onto the field stack too, one gradient
        # run per row, is the next step (ROADMAP: the field as one kernel
        # per point).
        kept, inputs = [], []
        for r, x in enumerate(X.tolist()):
            try:
                vals = evaluate_stack(p.constraint_stack, x)
                worst = max(max(map(abs, vals[:m]), default=0.0), max(vals[m:], default=0.0))
                if worst > feas_tol:
                    raise _infeasible(worst, feas_tol)
                theta = evaluate(p.objective, x)
                rows = [grad(e, x) for e in (p.objective, *p.equalities, *p.inequalities)]
            except (FieldError, ExprError) as exc:
                errors[r] = exc
                continue
            kept.append(r)
            inputs.append((*x, theta, *itertools.chain(rows[0], vals, *rows[1:])))
    block, failed = _assemble(kernel, inputs)
    for j, exc in failed.items():
        errors[kept[j]] = exc
    return block, errors


def _infeasible(worst, feas_tol):
    """The error of a row whose largest constraint violation, ``worst``,
    exceeds ``feas_tol``."""
    return InfeasiblePointError(
        f"point infeasible: max constraint violation {worst:.3e} > {feas_tol:.1e}")


def point_block(p, params, x):
    """The one-row FieldBlock of the point ``x``: the N = 1 case of
    ``field_block``, which raises the row's error if it has one."""
    block, (error,) = field_block(p, params, np.asarray(x, dtype=float)[None])
    if error is not None:
        raise error
    return block


def field_eval(p, params, x):
    """The stabilizing field and all auxiliaries at ``x``: row 0 of its
    one-row FieldBlock.  ``x`` must be feasible to FIELD_FEAS_TOL; the
    field is only defined near the feasible set."""
    return point_block(p, params, x).row(0)


def dissipation_rates(params, xi, g, v, vplus):
    """Objective decrease rate along the field, assembled term by term, at
    each row of the FieldBlock columns xi, g, v and v+.

    Always non-positive on the feasible set; equals the direct dot
    product grad(theta) . F there.  A row has the bits of the same sum
    taken at its point alone.
    """
    gv = g * v
    rate = -np.vecdot(xi, _mv(params.R1, xi))
    rate -= np.vecdot(gv, _mv(params.R2, gv))
    rate -= np.sum(params.a * np.abs(g) * v ** 2, axis=1)
    rate -= np.sum(params.b * vplus ** 2, axis=1)
    rate -= np.sum(_gain_terms(params, vplus), axis=1)
    return rate


def dissipation(params, fe):
    """Objective decrease rate along the field ``fe`` of the gains
    ``params`` at one point: the one-row case of ``dissipation_rates``."""
    return float(dissipation_rates(params, fe.xi[None], fe.g[None], fe.v[None],
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
