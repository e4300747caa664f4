"""The ray kernel against its oracles.

``ray_polynomials`` gives the Taylor coefficients c_0..c_D, D =
RAY_DEGREE, of an expression along the ray x + s*u.  On a polynomial tree
of degree at most RAY_DEGREE, every coefficient above its degree must be
an exact 0.0, sum c_i s^i must be the value at x + s*u, and sum i c_i
s^(i-1) the slope ``grad . u`` there, each within a bound tied to the
rounding of both paths.  On a rational tree the series is truncated at
D = RAY_DEGREE, and the truncation error is O(s^(D+1)).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlpflow.exprlang import (RAY_DEGREE, BinOp, EvalError, Expr, Neg, Num, Pow, Var,
                              _post_order, evaluate, grad, parse, ray_polynomials)
from test_lowering import _LEAF, NAMES

EPS = np.finfo(float).eps


def _extend(inner):
    """``test_lowering``'s combinators without division: polynomial trees."""
    return st.one_of(
        st.builds(BinOp, st.sampled_from("+-*"), inner, inner),
        st.builds(Pow, inner, st.integers(0, 3)),
        st.builds(Neg, inner),
        st.builds(lambda op, t: BinOp(op, t, t), st.sampled_from("+-*"), inner))


def _degree(root):
    def combine(node, kids):
        if isinstance(node, Pow):
            return kids[0] * node.exponent
        if isinstance(node, BinOp):
            return kids[0] + kids[1] if node.op == "*" else max(kids)
        return kids[0]
    return _post_order(root, lambda node: int(isinstance(node, Var)), combine)


def _zeros(coefficients):
    """Whether every one of ``coefficients`` is an exact 0.0, with its sign bit clear."""
    return all(ci == 0.0 and math.copysign(1.0, ci) == 1.0 for ci in coefficients)


def _operations(root):
    """Roundings on a path through the tree, at most: one per operation,
    and one per multiplication of a power's chain, counted generously."""
    def combine(node, kids):
        return sum(kids) + 1 + (node.exponent if isinstance(node, Pow) else 0)
    return _post_order(root, lambda node: 0, combine)


def _magnitude(root):
    """The tree with every constant by its magnitude, every ``-`` a ``+``
    and no negation: at |x| + |s| |u| it bounds each path's terms."""
    def combine(node, kids):
        if isinstance(node, BinOp):
            return BinOp("*" if node.op == "*" else "+", *kids)
        if isinstance(node, Pow):
            return Pow(kids[0], node.exponent)
        return kids[0]
    def leaf(node):
        return Num(abs(node.value)) if isinstance(node, Num) else node
    return Expr(_post_order(root, leaf, combine), NAMES)


_POLYNOMIALS = st.recursive(_LEAF, _extend, max_leaves=8).filter(
    lambda root: _degree(root) <= RAY_DEGREE)
# Six decimals keep every product clear of underflow, whose absolute error
# no relative bound covers.
_COORDINATE = st.floats(-3.0, 3.0).map(lambda v: round(v, 6))
_COORDINATES = st.lists(_COORDINATE, min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(_POLYNOMIALS, _COORDINATES, _COORDINATES, _COORDINATE)
def test_ray_polynomial_is_the_value_and_the_slope_along_the_ray(root, x, u, s):
    e = Expr(root, NAMES)
    y = [a + s * b for a, b in zip(x, u)]
    try:
        [c] = ray_polynomials(e, x, u)
        value, slope = evaluate(e, y), float(np.dot(grad(e, y), u))
        size = _magnitude(root)
        z = [abs(a) + abs(s) * abs(b) for a, b in zip(x, u)]
        M, M_slope = evaluate(size, z), float(np.dot(grad(size, z), np.abs(u)))
    except EvalError:  # an overflow of the 1e300 leaves
        assume(False)
    # Above the degree, c_1 is the tangent, a zero of either sign, and c_2
    # on are the padding 0.0.
    degree = _degree(root)
    assert len(c) == RAY_DEGREE + 1 and all(ci == 0.0 for ci in c[degree + 1:])
    assert _zeros(c[max(2, degree + 1):])
    roundings = _operations(root) + RAY_DEGREE + len(NAMES) + 4
    assert abs(sum(ci * s ** i for i, ci in enumerate(c)) - value) <= 4 * roundings * EPS * M
    assert (abs(sum(i * ci * s ** (i - 1) for i, ci in enumerate(c) if i) - slope)
            <= 4 * roundings * EPS * M_slope)


def test_rational_series_is_truncated_at_the_ray_degree():
    # 1/(1 + s) = 1 - s + s^2 - s^3 + s^4 - s^5/(1 + s).
    e = parse("1 / (1 + x1)", NAMES)
    [c] = ray_polynomials(e, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert c == (1.0, -1.0, 1.0, -1.0, 1.0)
    for s in (0.1, 0.05, 0.02):
        error = sum(ci * s ** i for i, ci in enumerate(c)) - 1 / (1 + s)
        assert error / s ** 5 == pytest.approx(1 / (1 + s), rel=1e-6)


@pytest.mark.parametrize("text", ["x1 / (x2^2 + 1) + x1^3", "(x1 - x2) / (x3 * x1 + 2)",
                                  "1 / (x1^5 + 3) - x2"])
def test_truncation_error_is_of_order_five(text):
    # Halving s divides the truncation error by 2^(D+1) = 32, up to O(s).
    e = parse(text, NAMES)
    x, u = [0.3, -0.4, 0.7], [0.9, 0.5, -0.6]
    [c] = ray_polynomials(e, x, u)
    assert len(c) == RAY_DEGREE + 1

    def error(s):
        return sum(ci * s ** i for i, ci in enumerate(c)) - evaluate(
            e, [a + s * b for a, b in zip(x, u)])

    for s in (0.02, 0.01):
        assert error(s) / error(s / 2) == pytest.approx(2.0 ** (RAY_DEGREE + 1), rel=0.1)


@pytest.mark.parametrize("name, degree", [("p41", 2), ("p42", 4)])
def test_field_stack_rays_have_the_problem_degree(name, degree, request):
    _, red = request.getfixturevalue(name)
    x, u = [0.1] * red.n, [1.0] * red.n
    rays = ray_polynomials(red.field_stack, x, u)
    assert [len(c) for c in rays] == [RAY_DEGREE + 1] * (1 + red.k)
    # c_degree is some output's top coefficient, and every one above it is 0.0.
    assert any(c[degree] for c in rays) and all(_zeros(c[degree + 1:]) for c in rays)
    # c_0 is the value kernel's value, bit for bit.
    assert [c[0] for c in rays] == [evaluate(e, x) for e in red.field_stack.exprs]
    assert all(math.isfinite(ci) for c in rays for ci in c)
