"""Differential tests: the compiled kernels against the reference tree walkers.

``evaluate``, ``grad`` and ``jvp`` must return the same bits, of the same
type, as the recursive interpreters in ``exprlang_reference``, and fail
with the same exception class (an overflow there is an ``EvalError`` here).
At an ndarray point, or at a list of NumPy scalars, they return Python
floats, with the bits that the interpreters give on the NumPy scalars.
The stacked kernels, ``evaluate_stack`` and ``jvp_stack``, must return what
``evaluate`` and ``jvp`` return one expression at a time, and the solver's
stacked curvature scan and ray sampler what their per-expression forms in
``solver_reference`` return.
"""

import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exprlang_reference as ref
import solver_reference
from nlpflow import exprlang, solver
from nlpflow.exprlang import (EvalError, Stack, evaluate, evaluate_stack, grad,
                              jvp, jvp_stack, parse, substitute)
from nlpflow.field import FieldParams, field_eval
from nlpflow.io import load_problem, sample_feasible
from nlpflow.model import residuals
from test_acceptance import _random_expression

NAMES = ("x1", "x2", "x3")
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bits(value):
    return type(value), struct.pack("<d", value)


def _outcome(fn, e, *args):
    """Bits of the result, or the class of the exception raised."""
    try:
        out = fn(e, *args)
    except OverflowError:
        return EvalError
    except Exception as exc:  # noqa: BLE001 -- the class is the result
        return type(exc)
    if isinstance(out, (list, tuple)):
        return [_bits(v) for v in out]
    return _bits(out)


def _as_floats(fn):
    """``fn`` with its results as Python floats, which keeps their bits."""
    def call(*args):
        out = fn(*args)
        return [float(v) for v in out] if isinstance(out, list) else float(out)
    return call


def _reference(fn, e, x, *args):
    """The outcome the kernels must give: the reference walker's at ``x``.

    The kernels run on Python floats whatever ``x`` holds, so where it
    holds anything else (an ndarray, a list of NumPy scalars) the reference
    runs on the same values as Python floats too, and where it gives
    numbers they must have the bits that the walker gives on ``x`` as it
    is.  A power that overflows behind ^0, which NumPy scalars hide as
    inf^0 = 1, fails in every container.
    """
    if all(type(v) is float for v in x):
        return _outcome(fn, e, x, *args)
    expected = _outcome(fn, e, [float(v) for v in x], *args)
    if not isinstance(expected, type):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _outcome(_as_floats(fn), e, x, *args) == expected
    return expected


# Directions for jvp, truncated to the number of variables.
DIRECTION = (0.7, -1.3, 2.9, -0.1)


def assert_same(e, x):
    u = DIRECTION[:len(x)]
    assert _outcome(evaluate, e, x) == _reference(ref.evaluate, e, x)
    assert _outcome(grad, e, x) == _reference(ref.grad, e, x)
    assert _outcome(jvp, e, x, u) == _reference(ref.jvp, e, x, u)


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
                assert_same(e, point.tolist())


@pytest.mark.parametrize("text, point", [
    ("x1 / (x2 - x2)", [1.0, 2.0, 0.0]),
    ("(1 / x1)^0", [0.0, 1.0, 1.0]),
    ("x1^400", [10.0, 0.0, 0.0]),
    ("(x1^400)^0 + x2", [10.0, 1.0, 0.0]),
    ("x1^0 * x2^1 - -x3", [0.0, -0.0, 3.0]),
    ("x1 * 1e308 * 10", [1.0, 0.0, 0.0]),
    ("(1e300*x1*x1)^0 + x1", [1e10, 0.0, 0.0]),
    ("(x1/x2)^0 + x3", [1.0, 1e-320, 2.0]),
])
def test_edge_cases_match_reference(text, point):
    e = parse(text, NAMES)
    assert_same(e, point)
    assert_same(e, np.array(point))


def _expressions(names=NAMES, constants=()):
    leaves = [st.sampled_from(names), st.floats(0.0, 4.0).map(lambda v: f"{v:.6g}")]
    if constants:
        leaves.append(st.sampled_from(constants))
    leaf = st.one_of(*leaves)

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


def test_kernels_are_shared_by_structure():
    # Same operations, different constants: one pair of compiled kernels.
    a, b = parse("2*x1 + 1", NAMES), parse("3*x1 + 5", NAMES)
    assert a.tape.value_kernel is b.tape.value_kernel
    assert a.tape.tangent_kernel is b.tape.tangent_kernel
    for x1 in (0.5, -2.0, 7.0):
        x = [x1, 0.0, 0.0]
        assert evaluate(a, x) == 2 * x1 + 1
        assert evaluate(b, x) == 3 * x1 + 5
        assert grad(a, x) == [2.0, 0.0, 0.0]
        assert grad(b, x) == [3.0, 0.0, 0.0]
        assert jvp(a, x, [1.0, 1.0, 1.0]) == 2.0
        assert jvp(b, x, [1.0, 1.0, 1.0]) == 3.0


# --- stacked kernels ---------------------------------------------------------

def _one_by_one(fn, exprs, *args):
    """What a stack must give: each expression's bits, or, if any of them
    fails, the class of the first failure."""
    outs = [_outcome(fn, e, *args) for e in exprs]
    failed = [o for o in outs if isinstance(o, type)]
    return failed[0] if failed else outs


def assert_stack_same(exprs, x):
    s = Stack(tuple(exprs), exprs[0].variables)
    u = DIRECTION[:len(x)]
    assert _outcome(evaluate_stack, s, x) == _one_by_one(evaluate, exprs, x)
    assert _outcome(jvp_stack, s, x, u) == _one_by_one(jvp, exprs, x, u)


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_problem_stacks_match_one_by_one(name, request):
    full, red = request.getfixturevalue(name)
    for x in sample_feasible(red, 50, seed=4):
        for p, point in ((red, x), (full, red.lift(x))):
            for s in (p.constraint_stack, p.scan_stack):
                assert_stack_same(s.exprs, point)
                assert_stack_same(s.exprs, list(point))
                assert_stack_same(s.exprs, point.tolist())


@pytest.mark.parametrize("texts, point", [
    (("x1 + x2", "x1 / (x2 - x2)", "x3"), [1.0, 2.0, 0.0]),
    (("x1^400", "x2"), [10.0, 1.0, 0.0]),
    (("x2 * 1e308 * 10", "x1 * 1e308 * 10"), [1.0, 0.0, 0.0]),
    (("(1 / x1)^0", "x2^0", "-x3"), [0.0, 1.0, 1.0]),
    (("x2", "(1e300*x1*x1)^0 + x1"), [1e10, 1.0, 0.0]),
])
def test_stack_edge_cases_match_one_by_one(texts, point):
    exprs = [parse(t, NAMES) for t in texts]
    assert_stack_same(exprs, point)
    assert_stack_same(exprs, np.array(point))


# Constants that overflow a product or a power of the generated trees.
_HUGE = ("1e200", "1e300")


@settings(max_examples=200, deadline=None)
@given(st.lists(_expressions(NAMES, _HUGE), min_size=1, max_size=4),
       _expressions(NAMES[:2]),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_random_stacks_match_one_by_one(texts, shared, point):
    exprs = [parse(t, NAMES) for t in texts]
    assert_stack_same(exprs, point)
    assert_stack_same(exprs, np.array(point))
    # Every tree refers to one shared subtree, as after an elimination.
    phi = parse(shared, NAMES[:2]).root
    reduced = [substitute(e, {2: phi}, NAMES[:2]) for e in exprs]
    assert_stack_same(reduced, point[:2])
    assert_stack_same(reduced, np.array(point[:2]))


def test_stack_lowers_shared_subtrees_once(p42):
    _, red = p42
    s = red.scan_stack
    assert s is red.scan_stack and red.constraint_stack is red.constraint_stack
    assert s.exprs == (red.objective, *red.inequalities)
    # theta, g1 and g2 each contain the elimination map of x4.
    assert len(s.tape.ops) < sum(len(e.tape.ops) for e in s.exprs)


def test_stack_needs_one_namespace():
    with pytest.raises(exprlang.ExprError):
        Stack((parse("x1", NAMES), parse("x1", ("x1",))), NAMES)


def test_reparsing_a_problem_compiles_nothing():
    def exercise():
        full, red = load_problem(ROOT / "problems" / "p42.nlp")
        x = np.array([-0.9, -1.0, 2.0])
        residuals(full, red.lift(x))
        fe = field_eval(red, FieldParams.default(red.n, red.k, sigma=0.2), x)
        solver.active_index_set(red, fe, x, 1e-6)
        solver._curvature_scan(red, fe, x, 1.0)

    exercise()
    before = exprlang._compile.cache_info()
    exercise()
    after = exprlang._compile.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("name, sigma", [("p41", 2.0), ("p42", 0.2)])
def test_stacked_scan_and_ray_match_per_expression(name, sigma, request):
    _, red = request.getfixturevalue(name)
    params = FieldParams.default(red.n, red.k, sigma=sigma)
    for x in sample_feasible(red, 20, seed=5):
        fe = field_eval(red, params, x)
        for span in (1.0, 0.05, 1e-4, 1e-8):
            K, K_theta = solver._curvature_scan(red, fe, x, span)
            K_ref, K_theta_ref = solver_reference.curvature_scan(red, fe, x, span)
            assert K.dtype == K_ref.dtype and K.tobytes() == K_ref.tobytes()
            assert _bits(K_theta) == _bits(K_theta_ref)
        for epsilon in (1.0, 0.1, 1e-3, 1e-6):
            assert (solver.active_index_set(red, fe, x, epsilon)
                    == solver_reference.active_index_set(red, fe, x, epsilon))
