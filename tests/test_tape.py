"""Differential tests: the compiled kernels against the reference tree walkers.

``evaluate``, ``grad`` and a one-point ``jvp_block`` must return the same
bits, of the same type, as the recursive interpreters in
``exprlang_reference``, and fail with the same exception class (an
overflow there is an ``EvalError`` here).
At an ndarray point, or at a list of NumPy scalars, they return Python
floats, with the bits that the interpreters give on the NumPy scalars.
The stacked kernels, run by ``evaluate_stack`` and ``jvp_block``, must return
what they return one expression at a time, and the solver's
stacked curvature scan, ray sampler and projection what their
per-expression forms in ``solver_reference`` return.
"""

import math
import pathlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exprlang_reference as ref
import solver_reference
from nlpflow import exprlang, solver
from nlpflow.exprlang import (EvalError, Stack, evaluate, evaluate_stack, grad,
                              jvp_block, parse, substitute)
from nlpflow.field import FieldParams, field_eval
from nlpflow.io import load_problem, sample_feasible
from nlpflow.model import Problem, residuals
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


def _tangents(s, x, u):
    """``jvp_block`` at the one point ``x``: each expression's tangent."""
    return jvp_block(s, [x], u)[0]


def _jvp(e, x, u):
    """The one expression's tangent at ``x`` along ``u``."""
    [d] = _tangents(e, x, u)
    return d


def assert_same(e, x):
    u = DIRECTION[:len(x)]
    assert _outcome(evaluate, e, x) == _reference(ref.evaluate, e, x)
    assert _outcome(grad, e, x) == _reference(ref.grad, e, x)
    assert _outcome(_jvp, e, x, u) == _reference(ref.jvp, e, x, u)


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
        assert _jvp(a, x, [1.0, 1.0, 1.0]) == 2.0
        assert _jvp(b, x, [1.0, 1.0, 1.0]) == 3.0


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
    assert _outcome(_tangents, s, x, u) == _one_by_one(_jvp, exprs, x, u)


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
            K, K_theta, scanned = solver._curvature_scan(red, fe, x, span)
            assert scanned == span
            K_ref, K_theta_ref = solver_reference.curvature_scan(red, fe, x, span)
            assert K.dtype == K_ref.dtype and K.tobytes() == K_ref.tobytes()
            assert _bits(K_theta) == _bits(K_theta_ref)
        for epsilon in (1.0, 0.1, 1e-3, 1e-6):
            assert (solver.active_index_set(red, fe, x, epsilon)
                    == solver_reference.active_index_set(red, fe, x, epsilon))


def _projection(fn, target, p, indices):
    """The bits of the point ``fn`` returns, or its error's class and message."""
    try:
        return fn(target, p, indices).tobytes()
    except solver.SolveError as exc:
        return type(exc), str(exc)


def test_stacked_projection_matches_per_expression(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    moved = 0
    for x in sample_feasible(red, 20, seed=5):
        fe = field_eval(red, params, x)
        for s in (1.0, 0.5):
            target = x + s * fe.F
            for indices in ((0, 1), (1, 0), (0,), (1,)):
                got = _projection(solver.project_inexact, target, red, indices)
                assert got == _projection(solver_reference.project_inexact,
                                          target, red, indices)
                moved += isinstance(got, bytes) and got != target.tobytes()
    assert moved > 0
    # A tie for the most violated constraint goes to the first in index
    # order; from (2, 2) that gives (1, 2) or (1, 1.5).
    names = ("x1", "x2")
    tie = Problem(names=names, objective=parse("x1", names),
                  inequalities=(parse("x1 - 1", names), parse("x1 + x2 - 3", names)))
    for indices, want in (((0, 1), [1.0, 2.0]), ((1, 0), [1.0, 1.5])):
        got = solver.project_inexact(np.array([2.0, 2.0]), tie, indices)
        assert got.tolist() == want
        assert got.tobytes() == solver_reference.project_inexact(
            np.array([2.0, 2.0]), tie, indices).tobytes()


def _wall_problem(scale):
    """g_0 = scale * T_8(x1), the Chebyshev polynomial, and g_1 = x1.

    At x1 in {-1, -0.75, ..., 1} T_8 swings between -0.5 and 1, so at scale
    1.7e308 the samples are finite and some of their differences overflow.
    """
    names = ("x1",)
    return Problem(names=names, objective=parse("x1", names), inequalities=(
        parse(f"{scale} * (128*x1^8 - 256*x1^6 + 160*x1^4 - 32*x1^2 + 1)", names),
        parse("x1", names)))


@pytest.mark.parametrize("scale", ["1.7e308", "-1.7e308", "1"])
@pytest.mark.parametrize("x0, epsilon", [
    (-1.0, 2.0), (-1.0, 0.5), (-0.75, 1.5),
    # The squared sample spacing underflows to 0, so a second difference of
    # 0 gives a NaN curvature, which NumPy's max keeps, and the constraint
    # is left out although g_1 >= 0 at every sample.
    (0.0, 1e-170), (0.0, 5e-324)])
def test_ray_sampler_edges_match_numpy(scale, x0, epsilon):
    p = _wall_problem(scale)
    fe = SimpleNamespace(F=np.array([1.0]))
    x = np.array([x0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        want = solver_reference.active_index_set(p, fe, x, epsilon)
    assert solver.active_index_set(p, fe, x, epsilon) == want
    if epsilon < 1e-160:
        assert want == ()


def test_peak_curvature_is_the_numpy_formula():
    big = 1.7e308
    columns = [(big, -big, big, -big, 0.0, 0.0, 0.0, 1.0, -1.0),
               (0.0,) * 9, (-0.0, 0.0) * 4 + (1e-300,),
               (-big, big, -1.0, 2.0, big, big, -big, 0.0, 5.0)]
    for column in columns:
        for dsq in (1.0, 1e-300, 5e-324, 0.0):
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                want = float(np.max(np.maximum(0.0, np.diff(np.array(column), 2) / dsq)))
            got = solver._peak_curvature(column, dsq)
            assert got == want or math.isnan(got) and math.isnan(want), (column, dsq)


# --- value numbering ---------------------------------------------------------

def _failure(fn, *args):
    """The class and message of the error ``fn`` raises, an overflow with
    the tape's message for it, or None."""
    try:
        fn(*args)
    except OverflowError as exc:
        return EvalError, f"overflow: {exc.args[-1]}"
    except exprlang.ExprError as exc:
        return type(exc), str(exc)
    return None


def assert_same_with_messages(e, x):
    """``assert_same``, and every error with the reference's message."""
    assert_same(e, x)
    u, floats = DIRECTION[:len(x)], [float(v) for v in x]
    assert _failure(evaluate, e, x) == _failure(ref.evaluate, e, floats)
    assert _failure(grad, e, x) == _failure(ref.grad, e, floats)
    assert _failure(_jvp, e, x, u) == _failure(ref.jvp, e, floats, u)


def _copy(root):
    """A tree equal to ``root`` that shares no operation node with it, so
    only value numbering can lower its operations once."""
    return substitute(exprlang.Expr(root, NAMES), {}, NAMES).root


# Leaves built afresh for every draw: equal constants are distinct objects,
# and 0.0 and -0.0 are equal but differ in their bits.
_LEAF = st.one_of(
    st.sampled_from(range(3)).map(lambda i: exprlang.Var(i, NAMES[i])),
    st.builds(exprlang.Num, st.sampled_from([0.0, -0.0, 2.0, 0.5, 1e300, 1e200])))


def _extend(inner):
    return st.one_of(
        st.builds(exprlang.BinOp, st.sampled_from("+-*/"), inner, inner),
        st.builds(exprlang.Pow, inner, st.integers(0, 3)),
        st.builds(exprlang.Neg, inner))


_TREES = st.recursive(_LEAF, _extend, max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_TREES, _TREES, st.sampled_from("+-*/"),
       st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 3.0, 1e200]),
                min_size=3, max_size=3))
def test_value_numbered_trees_match_reference(a, b, op, point):
    # Each tree holds its operand twice, once as an equal copy: repeated
    # monomials, constants, divisions by zero and powers, each lowered once.
    for root in (exprlang.BinOp(op, a, _copy(a)),
                 exprlang.BinOp("+", exprlang.BinOp(op, a, b),
                                exprlang.BinOp(op, _copy(a), _copy(b))),
                 exprlang.BinOp("*", exprlang.Pow(a, 0), exprlang.Pow(_copy(a), 0))):
        e = exprlang.Expr(root, NAMES)
        assert_same_with_messages(e, point)
        assert_same_with_messages(e, np.array(point))
        assert_stack_same([e, exprlang.Expr(a, NAMES), exprlang.Expr(_copy(a), NAMES)],
                          point)
    # The copy adds one operation, the one that combines the two.
    lone = exprlang.Expr(a, NAMES).tape
    pair = exprlang.Expr(exprlang.BinOp(op, a, _copy(a)), NAMES).tape
    assert (len(pair.ops), pair.consts) == (len(lone.ops) + 1, lone.consts)


@pytest.mark.parametrize("text, point", [
    # Duplicate monomials and constants.
    ("x1^2 + 2*x1^2 + x1^2*x2 + 2*x2^2 + x1^2", [1.5, -0.5, 0.0]),
    # The same division by zero twice, and after it another.
    ("x1/(x2-x2) + x1/(x2-x2) + x3/(x2-x2)", [1.0, 2.0, 3.0]),
    ("(x1/(x2-x2))^0 * (x1/(x2-x2))^0", [1.0, 2.0, 3.0]),
    # A duplicated ^0 of a non-finite base.
    ("(1e300*x1*x1)^0 + x2 + (1e300*x1*x1)^0", [1e10, 1.0, 0.0]),
    ("(x1^400)^0 - (x1^400)^0", [10.0, 1.0, 0.0]),
])
def test_repeated_operations_match_reference(text, point):
    e = parse(text, NAMES)
    assert_same_with_messages(e, point)
    assert_same_with_messages(e, np.array(point))


def test_signed_zero_constants_keep_separate_slots():
    zero, neg_zero = exprlang.Num(0.0), exprlang.Num(-0.0)
    x1 = exprlang.Var(0, "x1")
    # x1*(-0.0) + x1*0.0 is +0.0 at x1 = 1; x1*(-0.0) + x1*(-0.0) would be -0.0.
    e = exprlang.Expr(exprlang.BinOp("+", exprlang.BinOp("*", x1, neg_zero),
                                     exprlang.BinOp("*", x1, zero)), NAMES)
    assert len(e.tape.consts) == 2 and len(e.tape.ops) == 3
    assert _bits(evaluate(e, [1.0, 0.0, 0.0])) == _bits(0.0)
    assert_same_with_messages(e, [1.0, 0.0, 0.0])
    twice = exprlang.Expr(exprlang.BinOp("+", exprlang.BinOp("*", x1, neg_zero),
                                         exprlang.BinOp("*", x1, exprlang.Num(-0.0))), NAMES)
    assert len(twice.tape.consts) == 1 and len(twice.tape.ops) == 2
    assert _bits(evaluate(twice, [1.0, 0.0, 0.0])) == _bits(-0.0)


@pytest.mark.parametrize("name, counts", [
    # (ops, constants) of the scan stack, the constraint stack, theta and each g_j.
    ("p41", {"scan": (19, 4), "constraints": (8, 2), "theta": (14, 3),
             "g": [(4, 2), (1, 0), (1, 0), (3, 1)]}),
    ("p42", {"scan": (38, 6), "constraints": (27, 4), "theta": (23, 4),
             "g": [(19, 3), (19, 3)]}),
])
def test_reduced_tapes_are_value_numbered(name, counts, request):
    _, red = request.getfixturevalue(name)

    def size(tape):
        return len(tape.ops), len(tape.consts)

    assert size(red.scan_stack.tape) == counts["scan"]
    assert size(red.constraint_stack.tape) == counts["constraints"]
    assert size(red.objective.tape) == counts["theta"]
    assert [size(g.tape) for g in red.inequalities] == counts["g"]


# --- block runs --------------------------------------------------------------

def _loop_outcome(fn, s, points, *args):
    """What a block run must give: the loop of one-point runs' results, or
    the class and message of its first error."""
    try:
        return [fn(s, x, *args) for x in points]
    except exprlang.ExprError as exc:
        return type(exc), str(exc)


def _block_outcome(fn, s, points, *args):
    try:
        return fn(s, points, *args)
    except exprlang.ExprError as exc:
        return type(exc), str(exc)


def assert_block_same(s, points):
    u = DIRECTION[:len(s.variables)]
    got = _block_outcome(exprlang.evaluate_block, s, points)
    want = _loop_outcome(evaluate_stack, s, points)
    assert got == want and type(got) is type(want)
    if isinstance(want, list):
        assert [[_bits(v) for v in row] for row in got] == \
            [[_bits(v) for v in row] for row in want]
    got = _block_outcome(jvp_block, s, points, u)
    want = _loop_outcome(_tangents, s, points, u)
    assert got == want and type(got) is type(want)
    if isinstance(want, list):
        assert [[_bits(v) for v in row] for row in got] == \
            [[_bits(v) for v in row] for row in want]


_COORDINATE = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 1e10, 1e200])


@settings(max_examples=200, deadline=None)
@given(st.lists(_expressions(NAMES, _HUGE), min_size=1, max_size=4),
       st.lists(st.lists(_COORDINATE, min_size=3, max_size=3), max_size=6))
def test_block_runs_fail_where_the_loop_fails(texts, points):
    s = Stack(tuple(parse(t, NAMES) for t in texts), NAMES)
    assert_block_same(s, points)
    assert_block_same(s, [np.array(x) for x in points])


@pytest.mark.parametrize("points", [
    # Division by zero at the second point, a non-finite value at the third.
    [[1.0, 1.0, 2.0], [1.0, 2.0, 2.0], [1e200, 1.0, 2.0]],
    # A non-finite value first, then a division by zero.
    [[1e200, 1.0, 2.0], [1.0, 2.0, 2.0]],
    # A non-finite value first, then a point of the wrong length.
    [[1e200, 1.0, 2.0], [1.0, 1.0]],
    # A point of the wrong length after a good one, before a failing one.
    [[1.0, 1.0, 2.0], [1.0, 1.0], [1.0, 2.0, 2.0]],
    [[1.0, 1.0, 2.0], [0.5, -1.0, 3.0]],
    [],
])
def test_block_run_raises_the_first_error_of_the_loop(points):
    s = Stack((parse("x1 / (x2 - x3)", NAMES), parse("x1 * x1 * x1 * 1e200", NAMES)),
              NAMES)
    assert_block_same(s, points)
