"""Problem data: residuals, Jacobians, constraint qualification, reduction.

A :class:`Problem` is ``min theta(x)`` subject to ``h_i(x) = 0`` and
``g_j(x) <= 0``.  A :class:`ReducedProblem` eliminates the equality
constraints through a user-supplied closed-form map for the trailing
variables, leaving an inequality-only problem in the leading variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .exprlang import Expr, evaluate, grad, substitute

# Feasibility tolerances, as bounds on max |h_i| and max g_j.  Accepted
# solver iterates satisfy FEAS_TOL.  The descent field is defined within
# the wider FIELD_FEAS_TOL, which is also how close to feasible the start
# of a solve or a flow must be.
FEAS_TOL = 1e-10
FIELD_FEAS_TOL = 1e-8


class ModelError(ValueError):
    pass


class ReductionError(ModelError):
    """The elimination map does not satisfy the equality constraints."""


@dataclass(frozen=True)
class Problem:
    names: tuple
    objective: Expr
    equalities: tuple = ()
    inequalities: tuple = ()

    def __post_init__(self):
        if len(self.equalities) >= self.n:
            raise ModelError("need fewer equality constraints than variables")

    @property
    def n(self):
        return len(self.names)

    @property
    def m(self):
        return len(self.equalities)

    @property
    def k(self):
        return len(self.inequalities)


@dataclass(frozen=True)
class ReducedProblem:
    """Inequality-only problem in the leading variables.

    Duck-types as a Problem with ``m = 0``: the composed objective and
    inequalities evaluate through the elimination map, so values agree
    bit-for-bit with the parent evaluated at the lifted point.
    """

    parent: Problem
    phi: tuple  # n2 expressions over the leading n1 variables
    objective: Expr
    inequalities: tuple
    names: tuple
    equalities: tuple = field(default=(), init=False)

    @property
    def n(self):
        return len(self.names)

    @property
    def n2(self):
        return len(self.phi)

    @property
    def m(self):
        return 0

    @property
    def k(self):
        return len(self.inequalities)

    def lift(self, xi):
        """Map reduced coordinates to a full-space point on the manifold."""
        xi = np.asarray(xi, dtype=float)
        tail = [evaluate(f, xi) for f in self.phi]
        return np.concatenate([xi, tail])


def residuals(p, x):
    """Equality and inequality constraint values at ``x``."""
    x = np.asarray(x, dtype=float)
    h = np.array([evaluate(e, x) for e in p.equalities], dtype=float)
    g = np.array([evaluate(e, x) for e in p.inequalities], dtype=float)
    return h, g


def is_feasible(p, x, tol=FEAS_TOL):
    h, g = residuals(p, x)
    ok_h = h.size == 0 or np.max(np.abs(h)) <= tol
    ok_g = g.size == 0 or np.max(g) <= tol
    return bool(ok_h and ok_g)


def jacobians(p, x):
    """Row-stacked constraint gradients (A for equalities, B for inequalities)."""
    x = np.asarray(x, dtype=float)
    n = p.n
    A = np.array([grad(e, x) for e in p.equalities], dtype=float).reshape(p.m, n)
    B = np.array([grad(e, x) for e in p.inequalities], dtype=float).reshape(p.k, n)
    return A, B


def check_licq(p, x, activity_tol=1e-9):
    """Linear independence of equality and active-inequality gradients.

    Rank is decided from singular values with relative threshold 1e-8.
    An empty gradient family is vacuously independent.
    """
    x = np.asarray(x, dtype=float)
    A, B = jacobians(p, x)
    _, g = residuals(p, x)
    active = [B[j] for j in range(p.k) if g[j] >= -activity_tol]
    rows = np.array(list(A) + active, dtype=float)
    if rows.shape[0] == 0:
        return True
    s = np.linalg.svd(rows.reshape(rows.shape[0], p.n), compute_uv=False)
    return bool(s[-1] > 1e-8 * s[0])


def reduce(p, elimination, samples=100, seed=0, tol=1e-8):
    """Build a ReducedProblem from ``elimination``: ordered (name, Expr) pairs.

    The eliminated names must be exactly the trailing variables of ``p``
    and their defining expressions may only use the leading variables.
    The equality constraints are verified at ``samples`` random points;
    any violation beyond ``tol`` raises :class:`ReductionError`.
    """
    n2 = len(elimination)
    if n2 == 0:
        raise ModelError("empty elimination")
    n1 = p.n - n2
    if n1 <= 0:
        raise ModelError("elimination covers every variable")
    kept = p.names[:n1]
    expected = p.names[n1:]
    got = tuple(name for name, _ in elimination)
    if got != expected:
        raise ModelError(
            f"eliminated variables must be the trailing ones {expected}, got {got}")

    phi = []
    for name, text in elimination:
        e = text if isinstance(text, Expr) else exprlang.parse(text, kept)
        if e.variables != tuple(kept):
            raise ModelError(f"elimination for {name} must use only {kept}")
        phi.append(e)
    phi = tuple(phi)

    replacements = {n1 + j: phi[j].root for j in range(n2)}
    objective = substitute(p.objective, replacements, kept)
    inequalities = tuple(substitute(e, replacements, kept) for e in p.inequalities)
    reduced = ReducedProblem(p, phi, objective, inequalities, tuple(kept))

    rng = np.random.default_rng(seed)
    for _ in range(samples):
        xi = rng.uniform(-5.0, 5.0, size=n1)
        h, _ = residuals(p, reduced.lift(xi))
        worst = float(np.max(np.abs(h))) if h.size else 0.0
        if worst > tol:
            raise ReductionError(
                f"elimination violates an equality constraint by {worst:.3e} "
                f"at a sampled point")
    return reduced
