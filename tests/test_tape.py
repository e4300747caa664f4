"""Differential tests: the tape against the reference tree walkers.

``evaluate`` and ``grad`` must return the same bits, of the same type, as
the recursive interpreters in ``exprlang_reference``, and fail with the
same exception class (an overflow there is an ``EvalError`` here).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exprlang_reference as ref
from nlpflow.exprlang import EvalError, evaluate, grad, parse
from nlpflow.io import sample_feasible
from test_acceptance import _random_expression

NAMES = ("x1", "x2", "x3")


def _bits(value):
    return type(value), struct.pack("<d", value)


def _outcome(fn, e, x):
    """Bits of the result, or the class of the exception raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = fn(e, x)
    except OverflowError:
        return EvalError
    except Exception as exc:  # noqa: BLE001 -- the class is the result
        return type(exc)
    if isinstance(out, list):
        return [_bits(v) for v in out]
    return _bits(out)


def assert_same(e, x):
    assert _outcome(evaluate, e, x) == _outcome(ref.evaluate, e, x)
    assert _outcome(grad, e, x) == _outcome(ref.grad, e, x)


def test_criterion_8_expressions_match_reference():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        e = parse(_random_expression(rng, NAMES), NAMES)
        x = rng.uniform(-2.0, 2.0, size=3)
        assert_same(e, x)
        assert_same(e, x.tolist())


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_problem_expressions_match_reference(name, request):
    full, red = request.getfixturevalue(name)
    for x in sample_feasible(red, 50, seed=3):
        for p, point in ((red, x), (full, red.lift(x))):
            for e in (p.objective, *p.equalities, *p.inequalities):
                assert_same(e, point)
                assert_same(e, list(point))


@pytest.mark.parametrize("text, point", [
    ("x1 / (x2 - x2)", [1.0, 2.0, 0.0]),
    ("(1 / x1)^0", [0.0, 1.0, 1.0]),
    ("x1^400", [10.0, 0.0, 0.0]),
    ("(x1^400)^0 + x2", [10.0, 1.0, 0.0]),
    ("x1^0 * x2^1 - -x3", [0.0, -0.0, 3.0]),
    ("x1 * 1e308 * 10", [1.0, 0.0, 0.0]),
])
def test_edge_cases_match_reference(text, point):
    e = parse(text, NAMES)
    assert_same(e, point)
    assert_same(e, np.array(point))


def _expressions():
    leaf = st.one_of(st.sampled_from(NAMES),
                     st.floats(0.0, 4.0).map(lambda v: f"{v:.6g}"))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(inner, st.integers(0, 5)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda a: f"-({a})"))

    return st.recursive(leaf, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_expressions(), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_random_trees_match_reference(text, point):
    e = parse(text, NAMES)
    assert_same(e, point)
    assert_same(e, np.array(point))
