"""Problem data: residuals, Jacobians, reduction.

A :class:`Problem` is ``min theta(x)`` subject to ``h_i(x) = 0`` and
``g_j(x) <= 0``.  A :class:`ReducedProblem` eliminates the equality
constraints through a user-supplied closed-form map for the trailing
variables, leaving an inequality-only problem in the leading variables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .exprlang import Expr, Stack, evaluate_stack, grad, substitute

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


class _Stacks:
    """A problem's expressions stacked into one tape per use, built on
    first use and kept on the problem."""

    @functools.cached_property
    def constraint_stack(self):
        """(h_1, ..., h_m, g_1, ..., g_k): every constraint at a point."""
        return Stack((*self.equalities, *self.inequalities), self.names)

    @functools.cached_property
    def scan_stack(self):
        """(theta, g_1, ..., g_k): the slopes the curvature scan takes."""
        return Stack((self.objective, *self.inequalities), self.names)


@dataclass(frozen=True)
class Problem(_Stacks):
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
class ReducedProblem(_Stacks):
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

    @functools.cached_property
    def phi_stack(self):
        """(phi_1, ..., phi_n2): the elimination map at a point."""
        return Stack(self.phi, self.names)

    @functools.cached_property
    def elimination_stack(self):
        """(phi_1, ..., phi_n2, h_1, ..., h_m) over the kept variables, each
        h_i composed with the map: one run gives the lift's trailing
        coordinates and every equality at the lifted point, with the bits of
        ``lift`` followed by the parent's constraint stack there.

        The map's operations come first in the tape, so where the map fails
        it raises first, with its own error.  Only where the map gives a
        value that is not finite can an equality's operations raise on it
        before the map's outputs are checked.
        """
        replacements = {self.n + j: f.root for j, f in enumerate(self.phi)}
        composed = (substitute(e, replacements, self.names) for e in self.parent.equalities)
        return Stack((*self.phi, *composed), self.names)

    def lift(self, xi):
        """Map reduced coordinates to a full-space point on the manifold."""
        xi = np.asarray(xi, dtype=float).tolist()
        return np.array(xi + list(evaluate_stack(self.phi_stack, xi)))

    def lift_block(self, points):
        """``lift`` at each row of ``points``.  Returns ``(lifted, errors)``:
        ``errors[r]`` is the ExprError that ``lift`` raises at row r, or
        None, and ``lifted`` stacks the lifted rows without an error."""
        lifted, errors = [], []
        for xi in points:
            try:
                lifted.append(self.lift(xi))
                errors.append(None)
            except exprlang.ExprError as exc:
                errors.append(exc)
        return np.reshape(lifted, (-1, self.parent.n)), errors


def constraint_values(p, x):
    """Equality and inequality constraint values at ``x`` as two tuples of
    Python floats, from one run of the problem's constraint stack."""
    values = evaluate_stack(p.constraint_stack, x)
    return values[:p.m], values[p.m:]


def residuals(p, x):
    """Equality and inequality constraint values at ``x``, as arrays."""
    h, g = constraint_values(p, x)
    return np.array(h, dtype=float), np.array(g, dtype=float)


def is_feasible(p, x, tol=FEAS_TOL):
    """Whether max |h_i| and max g_j are at most ``tol`` at ``x``."""
    h, g = constraint_values(p, x)
    return (not h or max(map(abs, h)) <= tol) and (not g or max(g) <= tol)


def jacobians(p, x):
    """Row-stacked constraint gradients (A for equalities, B for inequalities)."""
    x = np.asarray(x, dtype=float)
    n = p.n
    A = np.array([grad(e, x) for e in p.equalities], dtype=float).reshape(p.m, n)
    B = np.array([grad(e, x) for e in p.inequalities], dtype=float).reshape(p.k, n)
    return A, B


def reduce(p, elimination, samples=100, seed=0, tol=1e-8):
    """Build a ReducedProblem from ``elimination``: ordered (name, Expr) pairs.

    The eliminated names must be exactly the trailing variables of ``p``
    and their defining expressions may only use the leading variables.
    The equality constraints are verified at ``samples`` random points
    of [-5, 5]^n1, in order, each by one run of the reduced problem's
    ``elimination_stack``; any violation beyond ``tol`` raises
    :class:`ReductionError`.  The inequalities are not evaluated there:
    they need not be finite outside the region a solve visits.
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

    # One draw of every sample gives the points that one draw per sample
    # gives, in the same order.
    for xi in np.random.default_rng(seed).uniform(-5.0, 5.0, size=(samples, n1)):
        try:
            h = evaluate_stack(reduced.elimination_stack, xi)[n2:]
        except exprlang.EvalError:
            reduced.lift(xi)  # the map's own error, if it has one
            raise
        worst = max(map(abs, h), default=0.0)
        if worst > tol:
            raise ReductionError(
                f"elimination violates an equality constraint by {worst:.3e} "
                f"at a sampled point")
    return reduced
