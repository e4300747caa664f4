"""Differential tests: the compiled kernels against the reference tree walkers.

``evaluate`` and ``grad`` must return the same bits, of the same type, as
the recursive interpreters in ``exprlang_reference``, and fail with the
same exception class (an overflow there is an ``EvalError`` here).
At an ndarray point, or at a list of NumPy scalars, they return Python
floats, with the bits that the interpreters give on the NumPy scalars.
The ray kernel's c_0 must be the value, bit for bit, failing where the
value fails with its message, and its c_1, at every degree, the
dual-number walk's directional derivative, bit for bit: along a unit
vector, the gradient's entry, alone and in any stack.  The stacked
kernels, run by ``evaluate_stack`` and ``ray_polynomials``, must return
what they return one expression at a time, and the solver's ray test and
projection what their per-expression forms in ``solver_reference``
return; the slopes of the field stack's ray polynomials must agree with
``grad . F`` along the ray within a bound tied to rounding.
r35's snap must return what the per-constraint sweeps it replaced return.
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
from nlpflow import exprlang, io, solver
from nlpflow.exprlang import (EvalError, Stack, evaluate, evaluate_stack, grad, parse,
                              ray_polynomials, substitute)
from nlpflow.field import FieldParams, field_eval
from nlpflow.io import load_problem, sample_feasible
from nlpflow.model import Problem, residuals
from nlpflow.solver import SolveConfig, solve
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


# Directions of the rays, truncated to the number of variables.
DIRECTION = (0.7, -1.3, 2.9, -0.1)


def _ray(s, x, u):
    """``ray_polynomials`` of ``s`` at ``x`` along ``u``: every expression's
    coefficients in turn."""
    return [c for row in ray_polynomials(s, x, u) for c in row]


def _ray_values(s, x, u):
    """c_0 of every expression's ray polynomial."""
    return [row[0] for row in ray_polynomials(s, x, u)]


def _slope(e, x, u):
    """c_1 of the one expression's ray polynomial."""
    [c] = ray_polynomials(e, x, u)
    return c[1]


def _result(fn, *args):
    """The bits of the floats ``fn`` returns, or its error's class and message."""
    try:
        return [_bits(v) for v in fn(*args)]
    except exprlang.ExprError as exc:
        return type(exc), str(exc)


def assert_ray_runs_the_values(s, x):
    """The ray run of ``s`` (a Stack or an Expr) at ``x`` does the value
    run's work: c_0 has the bits of ``evaluate_stack``, and the ray fails
    where it fails, with its message."""
    assert (_result(_ray_values, s, x, DIRECTION[:len(s.variables)])
            == _result(evaluate_stack, s, x))


def assert_slope_is_the_dual_walk(e, x):
    """Where the dual-number walk gives a derivative along u, c_1 has its
    bits, zero signs included."""
    u = DIRECTION[:len(x)]
    want = _reference(ref.jvp, e, x, u)
    if not isinstance(want, type):
        assert _bits(_slope(e, x, u)) == want


def assert_same(e, x):
    assert _outcome(evaluate, e, x) == _reference(ref.evaluate, e, x)
    assert _outcome(grad, e, x) == _reference(ref.grad, e, x)
    assert_ray_runs_the_values(e, x)
    assert_slope_is_the_dual_walk(e, x)


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


EDGE_CASES = [
    ("x1 / (x2 - x2)", [1.0, 2.0, 0.0]),
    ("(1 / x1)^0", [0.0, 1.0, 1.0]),
    ("x1^400", [10.0, 0.0, 0.0]),
    ("(x1^400)^0 + x2", [10.0, 1.0, 0.0]),
    ("x1^0 * x2^1 - -x3", [0.0, -0.0, 3.0]),
    ("x1 * 1e308 * 10", [1.0, 0.0, 0.0]),
    ("(1e300*x1*x1)^0 + x1", [1e10, 0.0, 0.0]),
    ("(x1/x2)^0 + x3", [1.0, 1e-320, 2.0]),
]


@pytest.mark.parametrize("text, point", EDGE_CASES)
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


def assert_slopes_are_the_gradient(exprs, x):
    """Where ``grad`` gives an expression's gradient, c_1 of its ray along
    each unit vector e_i has the bits of entry i, alone and in a stack of
    all ``exprs``."""
    s = Stack(tuple(exprs), exprs[0].variables)
    for i, e_i in enumerate(exprlang._unit_vectors(len(x))):
        try:
            stacked = ray_polynomials(s, x, e_i)
        except EvalError:  # the run of some expression fails, as alone
            stacked = [None] * len(exprs)
        for e, row in zip(exprs, stacked):
            try:
                want = _bits(grad(e, x)[i])
            except EvalError:
                continue
            assert _bits(_slope(e, x, e_i)) == want
            if row is not None:
                assert _bits(row[1]) == want


def test_criterion_8_slopes_are_the_gradient():
    rng = np.random.default_rng(8)
    for _ in range(250):
        exprs = [parse(_random_expression(rng, NAMES), NAMES) for _ in range(4)]
        assert_slopes_are_the_gradient(exprs, rng.uniform(-2.0, 2.0, size=3))


@pytest.mark.parametrize("text, point", EDGE_CASES)
def test_edge_case_slopes_are_the_gradient(text, point):
    assert_slopes_are_the_gradient([parse(text, NAMES), parse("-(2) + x1^3 / x2", NAMES)],
                                   point)


def test_constant_member_of_a_stack_has_the_gradient_as_c_1():
    # grad of -(2) is -0.0 in every entry, the negated tangent of a
    # constant; in a stack with an expression of degree 4 too.
    lone = parse("-(2)", NAMES)
    s = Stack((parse("x1^3 / x2", NAMES), lone), NAMES)
    x = [1.5, 2.0, -0.5]
    assert [_bits(v) for v in grad(lone, x)] == [_bits(-0.0)] * 3
    for e_i in exprlang._unit_vectors(3):
        [c] = ray_polynomials(lone, x, e_i)
        assert [_bits(v) for v in c] == [_bits(v) for v in (-2.0, -0.0, 0.0, 0.0, 0.0)]
        _, constant = ray_polynomials(s, x, e_i)
        assert [_bits(v) for v in constant] == [_bits(v) for v in c]


def test_kernels_are_shared_by_structure():
    # Same operations, different constants: one pair of compiled kernels.
    a, b = parse("2*x1 + 1", NAMES), parse("3*x1 + 5", NAMES)
    assert a.tape.value_kernel is b.tape.value_kernel
    assert a.tape.ray_kernel is b.tape.ray_kernel
    for x1 in (0.5, -2.0, 7.0):
        x = [x1, 0.0, 0.0]
        assert evaluate(a, x) == 2 * x1 + 1
        assert evaluate(b, x) == 3 * x1 + 5
        assert grad(a, x) == [2.0, 0.0, 0.0]
        assert grad(b, x) == [3.0, 0.0, 0.0]
        assert _ray(a, x, [1.0, 1.0, 1.0]) == [2 * x1 + 1, 2.0, 0.0, 0.0, 0.0]
        assert _ray(b, x, [1.0, 1.0, 1.0]) == [3 * x1 + 5, 3.0, 0.0, 0.0, 0.0]


# --- stacked kernels ---------------------------------------------------------

def _one_by_one(fn, exprs, *args):
    """What a stack must give: each expression's bits, or, if any of them
    fails, the class of the first failure."""
    outs = [_outcome(fn, e, *args) for e in exprs]
    failed = [o for o in outs if isinstance(o, type)]
    return failed[0] if failed else outs


def _rays_one_by_one(exprs, x, u):
    """What a stack's ray run must give: each expression's coefficients
    alone, padded with 0.0 to the stack's degree, the largest of theirs; or,
    if any of them fails, the class of the first failure."""
    outs = [_outcome(_ray, e, x, u) for e in exprs]
    failed = [o for o in outs if isinstance(o, type)]
    if failed:
        return failed[0]
    width = max(map(len, outs))
    return [c for o in outs for c in o + [_bits(0.0)] * (width - len(o))]


def assert_stack_same(exprs, x):
    s = Stack(tuple(exprs), exprs[0].variables)
    u = DIRECTION[:len(x)]
    assert _outcome(evaluate_stack, s, x) == _one_by_one(evaluate, exprs, x)
    assert _outcome(_ray, s, x, u) == _rays_one_by_one(exprs, x, u)


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_problem_stacks_match_one_by_one(name, request):
    full, red = request.getfixturevalue(name)
    for x in sample_feasible(red, 50, seed=4):
        for p, point in ((red, x), (full, red.lift(x))):
            for s in (p.constraint_stack, p.field_stack):
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


@settings(max_examples=300, deadline=None)
@given(st.lists(_expressions(NAMES, _HUGE), min_size=1, max_size=4),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_random_slopes_are_the_gradient(texts, point):
    # Division, powers up to ^5 and constants that overflow.
    assert_slopes_are_the_gradient([parse(t, NAMES) for t in texts], point)
    assert_slopes_are_the_gradient([parse(t, NAMES) for t in texts], np.array(point))


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
    s = red.field_stack
    assert s is red.field_stack and red.constraint_stack is red.constraint_stack
    assert s.exprs == (red.objective, *red.inequalities)
    # theta, g1 and g2 each contain the elimination map of x4.
    assert len(s.tape.ops) < sum(len(e.tape.ops) for e in s.exprs)


def test_stack_needs_one_namespace():
    with pytest.raises(exprlang.ExprError):
        Stack((parse("x1", NAMES), parse("x1", ("x1",))), NAMES)


def test_reparsing_a_problem_compiles_nothing():
    def exercise():
        io._parse_problem.cache_clear()  # parse the text again, to new tapes
        full, red = load_problem(ROOT / "problems" / "p42.nlp")
        x = np.array([-0.9, -1.0, 2.0])
        residuals(full, red.lift(x))
        fe = field_eval(red, FieldParams.default(red.n, red.k, sigma=0.2), x)
        solver.active_index_set(red, fe, x, 1e-6)
        solver._ray(red.field_stack, x, fe.F)

    exercise()
    was = exprlang._compile.cache_info()
    exercise()
    now = exprlang._compile.cache_info()
    assert now.misses == was.misses and now.hits > was.hits


@pytest.mark.parametrize("name, sigma", [("p41", 2.0), ("p42", 0.2)])
def test_stacked_scan_and_ray_match_per_expression(name, sigma, request):
    _, red = request.getfixturevalue(name)
    params = FieldParams.default(red.n, red.k, sigma=sigma)
    exprs = (red.objective, *red.inequalities)
    for x in sample_feasible(red, 20, seed=5):
        fe = field_eval(red, params, x)
        polys, scale = solver._ray(red.field_stack, x, fe.F)
        assert scale == 1.0
        for span in (1.0, 0.05, 1e-4, 1e-8):
            # Each stacked slope at the points of the span, against grad . F
            # one expression at a time.  The bound is tied to the sizes of
            # both paths' terms, sum |d_i e| |F_i| and sum i |c_i| s^(i-1),
            # and covers the rounding of the point x + s*F, which the
            # expression's curvature carries into grad . F (at most 105 of
            # its ulps on these points).
            for s in np.linspace(0.0, span, 9).tolist():
                for c, e in zip(polys, exprs):
                    b = np.asarray(grad(e, x + s * fe.F))
                    slope = solver._value_slope(c, s)[1]
                    size = float(np.abs(b) @ np.abs(fe.F))
                    size += sum(i * abs(c[i]) * s ** (i - 1) for i in range(1, len(c)))
                    assert abs(slope - float(b @ fe.F)) <= 256 * np.finfo(float).eps * size
        for epsilon in (1.0, 0.1, 1e-3, 1e-6):
            active = solver.active_index_set(red, fe, x, epsilon)
            assert active == solver_reference.active_index_set(red, fe, x, epsilon)
            # Every constraint that rises above -epsilon on a fine grid of
            # the ray is flagged.
            ss = np.linspace(0.0, epsilon, 513)
            G = np.array([evaluate_stack(red.constraint_stack, x + s * fe.F) for s in ss])
            assert {j for j in range(red.k) if G[:, j].max() > -epsilon} <= set(active)


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
    # Both constraints are violated by 1 at (2, 2): the least-norm step onto
    # both facets lands on their vertex (1, 2) in either index order.
    names = ("x1", "x2")
    tie = Problem(names=names, objective=parse("x1", names),
                  inequalities=(parse("x1 - 1", names), parse("x1 + x2 - 3", names)))
    for indices in ((0, 1), (1, 0)):
        got = solver.project_inexact(np.array([2.0, 2.0]), tie, indices)
        assert got.tolist() == [1.0, 2.0]
        assert got.tobytes() == solver_reference.project_inexact(
            np.array([2.0, 2.0]), tie, indices).tobytes()


def test_snap_matches_the_per_constraint_sweeps(p42, monkeypatch):
    # Every candidate that r35 forms on its way from drawn starts of reduced
    # p42, at r = 1 and 0.5, has at most one facet in the band; there the
    # least-norm snap gives the sweeps' point and moved flag bit for bit.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    candidates = []
    project = solver._newton_project

    def recording(p, y, select, max_steps, reach=math.inf):
        if max_steps == solver.SNAP_SWEEPS:  # r35's snap, not a t31 projection
            candidates.append(np.array(y))
        return project(p, y, select, max_steps, reach)
    monkeypatch.setattr(solver, "_newton_project", recording)
    for r in (1.0, 0.5):
        for x0 in sample_feasible(red, 3, seed=5):
            assert solve(red, params, SolveConfig(r=r), x0).termination == "critical"
    monkeypatch.undo()
    moved = 0
    for y in candidates:
        assert len(solver._in_snap_band([evaluate(e, y) for e in red.inequalities])) <= 1
        got, steps, _, _ = solver._newton_project(red, y, solver._in_snap_band,
                                                  solver.SNAP_SWEEPS)
        want, want_moved = solver_reference.snap_to_facets(red, y)
        assert got.tobytes() == want.tobytes() and (steps > 0) == want_moved
        moved += want_moved
    assert candidates and moved > 0


def test_snap_lands_on_a_vertex_in_one_step(p41):
    # Near the vertex (1/3, 5/3) of reduced p41, g_0 and g_3 are both in the
    # band.  One least-norm step lands on both facets; three sweeps of one
    # Newton step per constraint end off the vertex.
    _, red = p41
    y0 = np.array([1 / 3 - 3e-11, 5 / 3 + 1e-11])
    assert solver._in_snap_band(evaluate_stack(red.constraint_stack, y0)) == [0, 3]
    y, steps, left, g = solver._newton_project(red, y0, solver._in_snap_band,
                                               solver.SNAP_SWEEPS)
    assert (steps, left, g[0], g[3]) == (1, [], 0.0, 0.0)
    want, moved = solver_reference.snap_to_facets(red, y0)
    assert moved and evaluate(red.inequalities[0], want) > 0.0


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
    # The sampler's squared spacing underflowed to 0, so a second difference
    # of 0 gave a NaN curvature, which NumPy's max kept, and every
    # constraint was left out, g_1 although g_1 >= 0 at every sample.
    (0.0, 1e-170), (0.0, 5e-324)])
def test_ray_sampler_edges_match_numpy(scale, x0, epsilon):
    # T_8 has degree 8, so its ray polynomial is a truncated Taylor model.
    # At the large scales its coefficients along F overflow, and the test
    # takes the model along a scaled direction, where its values may
    # overflow too: the maximum from np.roots fails where the test fails.
    p = _wall_problem(scale)
    fe = SimpleNamespace(F=np.array([1.0]))
    x = np.array([x0])
    got = _failure(solver.active_index_set, p, fe, x, epsilon)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _failure(solver_reference.active_index_set, p, fe, x, epsilon)
    assert got == want
    if got is None:
        got = solver.active_index_set(p, fe, x, epsilon)
        assert got == solver_reference.active_index_set(p, fe, x, epsilon)
    if epsilon < 1e-160:
        # g_1 = s on the ray.  g_0 is c_0 = scale * T_8(0) = scale at x, and
        # at -1.7e308 it stays there, far below -epsilon, along the whole
        # ray; its overflowing coefficients no longer flag it.
        assert got == ((1,) if scale == "-1.7e308" else (0, 1))
    elif scale == "1":
        # Where nothing overflows, the sampler with its lift gave the same set.
        assert got == solver_reference.sampled_active_index_set(p, fe, x, epsilon)


@pytest.mark.parametrize("text, want", [
    ("x1^4 - 6.6", ()), ("x1^4 - 6.62", ()), ("x1 - 1.8", (0,)), ("x1 - 2.2", ()),
    ("-(x1 - 0.5)^2 - 0.95", (0,)), ("-(x1 - 0.5)^2 - 1.05", ()), ("(x1 - 0.5)^2 - 1.2", (0,))])
def test_active_set_is_the_exact_maximum(text, want):
    # Along F = 1 from 0 with epsilon 1, j is active where max P over [0, 1]
    # exceeds -1.  x1^4 - a peaks at 1 - a: the sampler's curvature lift
    # flagged a = 6.6.  -(x1 - 0.5)^2 - a peaks at the root of P', -a, where
    # both ends are 0.25 lower; (x1 - 0.5)^2 - 1.2 peaks at both ends.
    names = ("x1",)
    p = Problem(names=names, objective=parse("x1", names), inequalities=(parse(text, names),))
    fe, x = SimpleNamespace(F=np.array([1.0])), np.array([0.0])
    assert solver.active_index_set(p, fe, x, 1.0) == want
    assert solver_reference.active_index_set(p, fe, x, 1.0) == want


def test_ray_reruns_along_a_scaled_direction_where_coefficients_overflow(monkeypatch):
    # Along F = 1e80, c_4 of x1^4 is 1e320, which overflows: the ray runs
    # again along F * 2^-64, an exact scaling, where every coefficient is
    # finite.  The ray test takes each maximum there over [0, epsilon *
    # 2^64]: g = x1^4 - 2*x1^3 - 1 stays below -1 from x1 = 0.5 to 1.5, at
    # epsilon 1e-80, and reaches 0 near x1 = 2.1069, at s = 1.6e-80.
    names = ("x1",)
    p = Problem(names=names, objective=parse("x1^4", names),
                inequalities=(parse("x1^4 - 2*x1^3 - 1", names),))
    fe, x = SimpleNamespace(F=np.array([1e80])), np.array([0.5])
    runs = []

    def counting(stack, x, u):
        runs.append(u[0])
        return ray_polynomials(stack, x, u)
    monkeypatch.setattr(solver, "ray_polynomials", counting)
    (theta, g), scale = solver._ray(p.field_stack, x, fe.F)
    u = 1e80 * 2.0 ** -64
    assert scale == 2.0 ** -64 and runs == [1e80, u]
    # g's Taylor coefficients at 0.5 are -1.1875, -1, -1.5, 0 and 1.
    assert np.allclose(g, [-1.1875, -u, -1.5 * u ** 2, 0.0, u ** 4], rtol=1e-15, atol=0.0)
    for epsilon, want in ((1e-80, ()), (1.5e-80, ()), (1.7e-80, (0,)), (1e-79, (0,))):
        assert solver.active_index_set(p, fe, x, epsilon) == want
        assert solver_reference.active_index_set(p, fe, x, epsilon) == want


@pytest.mark.parametrize("epsilon, want", [(1e-30, ()), (1e-26, ()), (1e-24, (0,))])
def test_constraint_whose_coefficients_overflow_is_active_only_where_it_rises(epsilon, want):
    # 1e-300 * x1^4 - 1 along F = 1e100 from 0: the kernel forms u^4 before
    # it scales it, so c_4 overflows at scale 1 and at 2^-64, though the
    # constraint stays near -1 until s*F nears 1e75.  Its maximum along the
    # scaled direction decides; an overflowing coefficient flagged it.
    names = ("x1",)
    p = Problem(names=names, objective=parse("x1", names),
                inequalities=(parse("1e-300*x1^4 - 1", names),))
    fe, x = SimpleNamespace(F=np.array([1e100])), np.array([0.0])
    assert not math.isfinite(ray_polynomials(p.constraint_stack, x, fe.F)[0][4])
    assert solver._ray(p.constraint_stack, x, fe.F)[1] == 2.0 ** -128
    assert solver.active_index_set(p, fe, x, epsilon) == want
    assert solver_reference.active_index_set(p, fe, x, epsilon) == want


def test_constraint_whose_coefficients_overflow_along_the_smallest_direction_is_active():
    # 1/x1 - 3e200 at x1 = 1e-200 along F = 1: c_k = (-u)^k / x1^(k+1)
    # overflows from c_1 on at u = 1 and at u = 2^-64, where the reruns
    # stop, so no maximum can be taken and the constraint counts as active,
    # though it falls from -2e200.  x1 - 1 stays below -1e-6 and is not.
    names = ("x1",)
    p = Problem(names=names, objective=parse("x1", names),
                inequalities=(parse("1/x1 - 3e200", names), parse("x1 - 1", names)))
    fe, x = SimpleNamespace(F=np.array([1.0])), np.array([1e-200])
    (g0, _), scale = solver._ray(p.constraint_stack, x, fe.F)
    assert scale == 2.0 ** -64 and g0[0] == -2e200 and g0[1] == -math.inf
    assert solver.active_index_set(p, fe, x, 1e-6) == (0,)
    assert solver_reference.active_index_set(p, fe, x, 1e-6) == (0,)


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
    floats = [float(v) for v in x]
    assert _failure(evaluate, e, x) == _failure(ref.evaluate, e, floats)
    assert _failure(grad, e, x) == _failure(ref.grad, e, floats)
    # The ray fails where the dual-number walk fails on a value, with its
    # message.  The walk's sweep error is a final value or tangent that is
    # not finite: the ray fails on the value alone, with evaluate's message.
    u = DIRECTION[:len(x)]
    ray, walk = _failure(_slope, e, x, u), _failure(ref.jvp, e, floats, u)
    assert ray == walk or walk == (EvalError, "non-finite value in derivative sweep") and \
        ray in (None, _failure(ref.evaluate, e, floats))


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
    # (ops, constants) of the field stack, the constraint stack, theta and each g_j.
    ("p41", {"field": (19, 4), "constraints": (8, 2), "theta": (14, 3),
             "g": [(4, 2), (1, 0), (1, 0), (3, 1)]}),
    ("p42", {"field": (38, 6), "constraints": (27, 4), "theta": (23, 4),
             "g": [(19, 3), (19, 3)]}),
])
def test_reduced_tapes_are_value_numbered(name, counts, request):
    _, red = request.getfixturevalue(name)

    def size(tape):
        return len(tape.ops), len(tape.consts)

    assert size(red.field_stack.tape) == counts["field"]
    assert size(red.constraint_stack.tape) == counts["constraints"]
    assert size(red.objective.tape) == counts["theta"]
    assert [size(g.tape) for g in red.inequalities] == counts["g"]


# --- block runs --------------------------------------------------------------

_COORDINATE = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 1e10, 1e200])


@settings(max_examples=200, deadline=None)
@given(st.lists(_expressions(NAMES, _HUGE), min_size=1, max_size=4),
       st.lists(st.lists(_COORDINATE, min_size=3, max_size=3), max_size=6))
def test_block_runs_fail_where_the_loop_fails(texts, points):
    # At each point of a block the ray run fails where the value run fails.
    s = Stack(tuple(parse(t, NAMES) for t in texts), NAMES)
    for x in points:
        assert_ray_runs_the_values(s, x)
        assert_ray_runs_the_values(s, np.array(x))


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
    # The runners run one point at a time; the ray run raises the value
    # run's error at each.
    s = Stack((parse("x1 / (x2 - x3)", NAMES), parse("x1 * x1 * x1 * 1e200", NAMES)),
              NAMES)
    for x in points:
        assert_ray_runs_the_values(s, x)
