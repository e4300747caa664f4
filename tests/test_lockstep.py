"""The stacked field assembly and the lockstep flow: bit for bit against
the package's own one-point and one-trajectory paths, and within stated
bounds against the BLAS/LAPACK reference in ``flow_reference``.  Rows,
columns and a lone point give one field, bit for bit.  The expression
kernels, the sampler and the reduction's check give on NumPy columns what
one-point runs give, errors included."""

import numpy as np
import pytest

import checks_reference
import flow_reference as ref
from nlpflow import exprlang, field, io
from nlpflow.exprlang import (EvalError, ExprError, Stack, evaluate_columns, evaluate_stack, grad,
                              gradient_columns, parse)
from nlpflow.field import FieldParams, dissipation_rates, field_block, field_eval
from nlpflow.flow import _advance, euler_flow, phase_grid
from nlpflow.io import sample_feasible
from nlpflow.model import REDUCE_SAMPLES, Problem, ReductionError, reduce
from test_acceptance import _random_expression

EPS = np.finfo(float).eps
# How far the field kernel may round from the reference, which sums in
# BLAS's and LAPACK's order: per quantity, in units of
# EPS * (1 + max |reference|), about 8 times the worst seen on these
# tests' points (0.8, 11, 22, 81, 50, 81, 284, 410, 1441 and 495).  The
# inputs come from the same expression kernels, so they agree exactly.
FIELD_BOUND = {"H": 8, "Q": 128, "P": 256, "v": 1024, "vplus": 1024, "xi": 1024,
               "r3": 4096, "F": 4096, "w": 16384, "omega": 4096}
# The same for each column of a trajectory (worst seen: 12).
TRAJECTORY_BOUND = 64


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _within(got, want, ulps):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bound = ulps * EPS * (1.0 + np.abs(want).max(initial=0.0))
    return np.abs(got - want).max(initial=0.0) <= bound


def assert_same_field(got, want):
    assert got._fields == want._fields
    for name, a, b in zip(want._fields, got, want):
        assert _bits(a) == _bits(b), name


def assert_close_field(got, want):
    assert got._fields == want._fields
    for name, a, b in zip(want._fields, got, want):
        assert _within(a, b, FIELD_BOUND.get(name, 0)), name


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.status, a.diagnostic) == (b.status, b.diagnostic)
        for name in ("t", "x", "theta", "normF", "max_g", "max_abs_h"):
            assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


def assert_close_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.status, a.diagnostic) == (b.status, b.diagnostic)
        assert _bits(a.t) == _bits(b.t)
        for name in ("x", "theta", "normF", "max_g", "max_abs_h"):
            assert _within(getattr(a, name), getattr(b, name), TRAJECTORY_BOUND), name


def _one_by_one(p, params, starts, step, steps):
    """Each start's trajectory alone, from the package and from the reference."""
    return ([euler_flow(p, params, x0, step, steps) for x0 in starts],
            [ref.euler_flow(p, params, x0, step, steps) for x0 in starts])


def package_field(p, params, x, feas_tol):
    """The package's field at one point, assembled afresh as a one-row
    block: ``ref.euler_flow``'s ``field`` for the every-step loop."""
    block, (error,) = field_block(p, params, np.asarray(x)[None], feas_tol)
    if error is not None:
        raise error
    return block.row(0)


def frozen_from(traj):
    """The first step i whose Euler step leaves x unchanged bit for bit,
    or None."""
    rows = [x.tobytes() for x in traj.x]
    return next((i for i in range(len(rows) - 1) if rows[i] == rows[i + 1]), None)


def _grid_pair(p, params, **grid):
    got = phase_grid(p, params, **grid)
    want = ref.phase_grid(p, params, **grid)
    for name in ("starts", "skipped"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name))
    assert_close_trajectories(got.trajectories, want.trajectories)
    alone = [euler_flow(p, params, x0, grid["step"], grid["steps"]) for x0 in got.starts]
    assert_same_trajectories(got.trajectories, alone)
    return got


PHASE_SHIFTS = pytest.mark.parametrize("d1, d2", [(0.0, 0.01), (0.013, 0.037)])


@PHASE_SHIFTS
def test_phase_benchmark_shape_matches_reference(p41, d1, d2):
    # The benchmark's phase op: a 2x2 grid over a shifted [0, 1.5]^2,
    # two feasible starts, 2000 steps.
    _, red = p41
    grid = _grid_pair(red, FieldParams.default(red.n, red.k, sigma=2.0), plane=(0, 1),
                      ranges=(d1, 1.5 + d1, d2, 1.5 + d2), counts=(2, 2),
                      base=np.zeros(2), step=0.01, steps=2000)
    assert len(grid.trajectories) == 2


@PHASE_SHIFTS
def test_frozen_trajectories_match_the_every_step_loop(p41, d1, d2):
    # At the benchmark's settings both trajectories reach a fixed point of
    # the Euler map and stop being evaluated; the reference loop, driven by
    # the package's own one-point field, evaluates all 2001 steps and gives
    # the same bits.
    _, red = p41
    params = FieldParams.default(red.n, red.k, sigma=2.0)
    grid = phase_grid(red, params, plane=(0, 1), ranges=(d1, 1.5 + d1, d2, 1.5 + d2),
                      counts=(2, 2), base=np.zeros(2), step=0.01, steps=2000)
    every_step = [ref.euler_flow(red, params, x0, 0.01, 2000, field=package_field)
                  for x0 in grid.starts]
    assert_same_trajectories(grid.trajectories, every_step)
    for traj in grid.trajectories:
        assert len(traj) == 2001 and frozen_from(traj) < 2000


def test_portrait_grid_matches_reference(p41):
    # Criterion 7's 11x11 grid, cut to 300 steps.
    _, red = p41
    grid = _grid_pair(red, FieldParams.default(red.n, red.k, sigma=2.0), plane=(0, 1),
                      ranges=(0.0, 1.5, 0.0, 1.5), counts=(11, 11),
                      base=np.zeros(2), step=0.01, steps=300)
    assert len(grid.trajectories) == 93


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_full_space_flows_match_reference(name, request):
    # m = 1: the stacked Gram matrix and projector.
    full, red = request.getfixturevalue(name)
    params = FieldParams.default(full.n, full.k, sigma=1.0)
    starts = [red.lift(x) for x in sample_feasible(red, 6, seed=4)]
    lockstep = _advance(full, params, starts, 0.01, 100)
    alone, reference = _one_by_one(full, params, starts, 0.01, 100)
    assert_same_trajectories(lockstep, alone)
    assert_close_trajectories(lockstep, reference)


def _doubled_facet():
    """min x1^2 + x2^2 s.t. x2 <= 5 (stated twice) and x1 >= -5.

    On the facet x2 = 5 the doubled constraint violates LICQ, so Q is
    singular there.
    """
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1^2 + x2^2", names),
                inequalities=(parse("x2 - 5", names), parse("x2 - 5", names),
                              parse("-x1 - 5", names)))
    return p, FieldParams.default(2, 3)


def test_trajectories_end_on_their_own():
    # From the minimizer F = 0 and the trajectory completes.  From (1, 0)
    # the step 1.5 overshoots by a growing factor until x1 >= -5 is
    # violated by more than DRIFT_ABORT.  On the facet x2 = 5 the
    # Cholesky factorization of Q fails at once.
    p, params = _doubled_facet()
    starts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 5.0])]
    lockstep = _advance(p, params, starts, 1.5, 10)
    assert_close_trajectories(lockstep, [ref.euler_flow(p, params, x0, 1.5, 10)
                                         for x0 in starts])
    assert [len(t) for t in lockstep] == [11, 5, 0]
    assert [t.status for t in lockstep] == ["completed", "aborted", "aborted"]
    assert lockstep[1].diagnostic == (
        "field evaluation failed at step 5: point infeasible: "
        "max constraint violation 3.220e+00 > 1.0e-02")
    assert lockstep[2].diagnostic == (
        "field evaluation failed at step 0: Q is not positive definite "
        "(smallest pivot 0.000e+00): LICQ violated or point infeasible")
    for x0, traj in zip(starts, lockstep):
        assert_same_trajectories([euler_flow(p, params, x0, 1.5, 10)], [traj])


def test_an_aborted_trajectory_is_not_padded(block_rows):
    # The start at the minimizer freezes at step 0 and leaves the block;
    # its 10 remaining records copy its first.  The start that drifts out
    # is the block alone until it aborts at step 5, and keeps its 5
    # records; the one on the singular facet keeps none.
    p, params = _doubled_facet()
    starts = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 5.0])]
    lockstep = _advance(p, params, starts, 1.5, 10)
    assert [len(rows) for rows in block_rows] == [3, 1, 1, 1, 1, 1]
    assert [(t.status, len(t)) for t in lockstep] == [
        ("completed", 11), ("aborted", 5), ("aborted", 0)]
    assert _bits(lockstep[0].x) == _bits(np.zeros((11, 2)))
    assert_same_trajectories(lockstep, [ref.euler_flow(p, params, x0, 1.5, 10, field=package_field)
                                        for x0 in starts])


def test_an_expression_error_ends_only_its_own_trajectory():
    # The first start sits at a critical point.  The second overflows x1^9
    # at step 1, once the huge gain has flung x1 out; the third divides by
    # zero at step 0.  Each error stops its own trajectory with a
    # diagnostic, and the first goes on to its end.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1^9 + 0/x2", names))
    params = FieldParams.default(2, 0, sigma=1e305)
    starts = [np.array([0.0, 1.0]), np.array([1e-30, 1.0]), np.array([0.0, 0.0])]
    lockstep = _advance(p, params, starts, 0.1, 5)
    assert [(t.status, len(t)) for t in lockstep] == [
        ("completed", 6), ("aborted", 1), ("aborted", 0)]
    assert [t.diagnostic for t in lockstep[1:]] == [
        "field evaluation failed at step 1: overflow: Numerical result out of range",
        "field evaluation failed at step 0: division by zero"]
    assert_same_trajectories(lockstep, [euler_flow(p, params, x0, 0.1, 5) for x0 in starts])
    assert_same_trajectories(lockstep, [ref.euler_flow(p, params, x0, 0.1, 5)
                                        for x0 in starts])


def test_drift_abort_is_pinned(p41):
    # Euler with step 0.5 from (1.9, 0.05) leaves the feasible set by more
    # than DRIFT_ABORT at its first step.
    _, red = p41
    traj = euler_flow(red, FieldParams.default(red.n, red.k, sigma=2.0),
                      np.array([1.9, 0.05]), step=0.5, steps=50)
    assert (traj.status, len(traj)) == ("aborted", 1)
    assert traj.diagnostic == ("field evaluation failed at step 1: point infeasible: "
                               "max constraint violation 2.225e+00 > 1.0e-02")


def _params(p, sigma):
    """Default gains scaled by ``sigma``, or (sigma None) every gain in use:
    a full R1, a positive semidefinite R2, c > 0 and p = 2, 3."""
    if sigma is not None:
        return FieldParams.default(p.n, p.k, sigma=sigma)
    L = np.tril(np.full((p.n, p.n), 0.3)) + np.eye(p.n)
    r = np.arange(1.0, p.k + 1)
    return FieldParams(R1=L @ L.T, R2=np.outer(r, r) / p.k, a=0.5 * r, b=r, c=0.25 * r,
                       p=[2 + j % 2 for j in range(p.k)])


@pytest.mark.parametrize("name", ["p41", "p42"])
@pytest.mark.parametrize("sigma", [0.2, 1.0, 50.0, None])
def test_block_rows_match_field_eval(name, sigma, request):
    full, red = request.getfixturevalue(name)
    points = sample_feasible(red, 50, seed=3)
    for p, X in ((red, points), (full, np.array([red.lift(x) for x in points]))):
        params = _params(p, sigma)
        block, errors = field_block(p, params, X)
        assert errors == [None] * len(X)
        for j, x in enumerate(X):
            fe = field_eval(p, params, x)
            assert_close_field(fe, ref.field_eval(p, params, x))
            assert_same_field(block.row(j), fe)


def _chain(v, k):
    """v^k, k >= 1, by the binary method: squares, and the products of
    those an exponent's bits select, low bits first."""
    result, square = None, v
    while k:
        if k & 1:
            result = square if result is None else result * square
        k >>= 1
        if k:
            square = square * square
    return result


@pytest.mark.parametrize("power", [1, 2, 3, 4])
def test_r3_is_b_plus_c_times_the_chain_of_v_plus(power, p42):
    # By rows (5 points) and by columns (30): r3_j = b_j + c_j*v+_j^(2p),
    # the power being the multiplication chain of the expression kernels.
    _, red = p42
    params = FieldParams(R1=np.eye(red.n), R2=np.zeros((red.k, red.k)), a=np.ones(red.k),
                         b=[1.0, 0.3], c=[0.7, 2.5], p=[power] * red.k)
    X = sample_feasible(red, 30, seed=9)
    positive = 0
    for N in (5, 30):
        block, errors = field_block(red, params, X[:N])
        assert errors == [None] * N
        for vplus, r3 in zip(block.vplus.tolist(), block.r3.tolist()):
            want = [b + c * _chain(v, 2 * power) for b, c, v in zip([1.0, 0.3], [0.7, 2.5], vplus)]
            assert _bits(r3) == _bits(want)
            positive += sum(v > 0.0 for v in vplus)
    assert positive > 10


def test_a_wide_block_below_the_crossover_once_infeasible_rows_leave(p42):
    # 30 rows, 20 of them infeasible: the inputs come from one column run,
    # and the 10 rows left run the field kernel row by row.
    _, red = p42
    params = _params(red, None)
    X = np.insert(sample_feasible(red, 10, seed=8), 5, np.full((20, red.n), 3.0), axis=0)
    assert len(X) >= exprlang.COLUMNS_FROM > 10
    block, errors = field_block(red, params, X)
    assert [r for r, error in enumerate(errors) if error is not None] == list(range(5, 25))
    kept = [r for r, error in enumerate(errors) if error is None]
    for j, r in enumerate(kept):
        assert_same_field(block.row(j), field_eval(red, params, X[r]))


def _unconstrained():
    names = ("x1", "x2", "x3")
    return Problem(names=names, objective=parse("x1^2 + 2*x2^2 + x3^2 - x1*x3 + x2", names))


def _one_equality():
    names = ("x1", "x2", "x3")
    return Problem(names=names, objective=parse("x1^4 - x2*x3 + x3^2", names),
                   equalities=(parse("x1 + x2^2 + x3 - 3", names),))


def _points(p, count):
    """``count`` seeded points of [-2, 2]^3, with x3 solved from the
    equality where there is one."""
    X = np.random.default_rng(7).uniform(-2.0, 2.0, size=(count, 3))
    if p.m:
        X[:, 2] = 3.0 - X[:, 0] - X[:, 1] ** 2
    return X


# k = 0: no inequality, so Q, P, v, v+, r3, w and omega are empty.
WITHOUT_INEQUALITIES = pytest.mark.parametrize(
    "make", [_unconstrained, _one_equality], ids=["unconstrained", "one-equality"])


@WITHOUT_INEQUALITIES
@pytest.mark.parametrize("sigma", [0.2, 1.0, 50.0])
@pytest.mark.parametrize("N", [1, 2, 40])
def test_block_rows_without_inequalities_match_field_eval(make, sigma, N):
    p = make()
    params = FieldParams.default(p.n, p.k, sigma=sigma)
    X = _points(p, N)
    block, errors = field_block(p, params, X)
    assert errors == [None] * N
    rates = dissipation_rates(params, block.xi, block.g, block.v, block.vplus)
    for j, x in enumerate(X):
        fe = field_eval(p, params, x)
        assert_same_field(block.row(j), fe)
        assert_close_field(fe, ref.field_eval(p, params, x))
        assert _bits(rates[j]) == _bits(np.float64(checks_reference.dissipation(params, fe)))


@WITHOUT_INEQUALITIES
def test_flows_without_inequalities_match_reference(make):
    p = make()
    params = FieldParams.default(p.n, p.k, sigma=1.0)
    starts = list(_points(p, 4))
    lockstep = _advance(p, params, starts, 0.01, 100)
    assert [t.status for t in lockstep] == ["completed"] * 4
    alone, reference = _one_by_one(p, params, starts, 0.01, 100)
    assert_same_trajectories(lockstep, alone)
    assert_close_trajectories(lockstep, reference)


def test_block_reports_each_failing_row():
    # Feasible, infeasible, singular Q, feasible: one error per row, in
    # row order, and the block holds the feasible rows alone.
    p, params = _doubled_facet()
    X = np.array([[0.5, 1.0], [-6.0, 0.0], [1.0, 5.0], [0.0, 0.0]])
    block, errors = field_block(p, params, X)
    assert errors[0] is None and errors[3] is None
    assert str(errors[1]).startswith("point infeasible")
    assert str(errors[2]).startswith("Q is not positive definite")
    assert _bits(block.x) == _bits(X[[0, 3]])
    for j, r in enumerate((0, 3)):
        assert_same_field(block.row(j), field_eval(p, params, X[r]))


def _agreement_case(name, request):
    """(problem, feasible points, a failing point) of one agreement case."""
    if name in ("unconstrained", "one-equality"):
        p = _unconstrained() if name == "unconstrained" else _one_equality()
        return p, _points(p, 93), np.full(3, 1e200)  # x1^2 or x1^4 overflows
    if name == "doubled-facet":
        p, _ = _doubled_facet()
        X = np.random.default_rng(5).uniform(-4.0, 4.9, size=(93, 2))
        return p, X, np.array([1.0, 5.0])  # Q is singular there
    problem, space = name.split("-")
    full, red = request.getfixturevalue(problem)
    X = sample_feasible(red, 93, seed=5)
    if problem == "p42":
        # The vertex where g_1 = 0 exactly: v+ and its signed zeros.
        X = np.concatenate([[[-1.0, -1.0, 2.0]], X[:-1]])
    if space == "full":
        return full, np.array([red.lift(x) for x in X]), np.full(full.n, 1e200)
    return red, X, np.full(red.n, 1e200)


@pytest.mark.parametrize("name", ["p41-reduced", "p41-full", "p42-reduced", "p42-full",
                                  "unconstrained", "one-equality", "doubled-facet"])
@pytest.mark.parametrize("sigma", [0.2, 1.0, 50.0])
def test_rows_columns_and_a_lone_point_agree_bit_for_bit(name, sigma, request, monkeypatch):
    # Each block but the one-point one has a failing row in its middle.
    p, X, bad = _agreement_case(name, request)
    params = FieldParams.default(p.n, p.k, sigma=sigma)
    crossover = exprlang.COLUMNS_FROM
    for N in (1, 2, crossover - 1, crossover, 93):
        block_X = X[:1] if N == 1 else np.insert(X[:N - 1], (N - 1) // 2, bad, axis=0)
        monkeypatch.setattr(exprlang, "COLUMNS_FROM", crossover)
        lone = []
        for x in block_X:
            try:
                lone.append(field_eval(p, params, x))
            except (field.FieldError, ExprError) as exc:
                lone.append(exc)
        assert sum(isinstance(want, Exception) for want in lone) == (N > 1)
        for columns_from in (crossover, 0, len(block_X) + 1):  # as shipped, columns, rows
            monkeypatch.setattr(exprlang, "COLUMNS_FROM", columns_from)
            block, errors = field_block(p, params, block_X)
            kept = iter(range(len(block.x)))
            for want, error in zip(lone, errors):
                if isinstance(want, Exception):
                    assert (type(error), str(error)) == (type(want), str(want))
                else:
                    assert error is None
                    assert_same_field(block.row(next(kept)), want)
            assert next(kept, None) is None


# ---------------------------------------------------------------------------
# The expression kernels: one column run against the row runs.

NAMES = ("x1", "x2", "x3")
SHIPPED = exprlang.COLUMNS_FROM


def _crossovers(monkeypatch, N):
    """Set the one crossover to its shipped value, to 0 (columns) and past
    N (rows), in turn."""
    for columns_from in (SHIPPED, 0, N + 1):
        monkeypatch.setattr(exprlang, "COLUMNS_FROM", columns_from)
        yield columns_from


def _outcome(fn, *args):
    """Every output's bits (as float.hex, which keeps a zero's sign), or the
    class and text of the error raised."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the error is the result
        return type(exc), str(exc)
    assert all(type(v) is float for row in out for v in row)
    return [[float.hex(v) for v in row] for row in out]


def _point_runs(s, points):
    """The rows of values, and of values and gradients, that one-point runs
    give, in order, or the first error of each: what a column run that
    vouches for the block must give, and where it must not vouch."""
    values = _outcome(lambda: [evaluate_stack(s, x) for x in points])
    grads = _outcome(lambda: [[*evaluate_stack(s, x), *(v for e in s.exprs for v in grad(e, x))]
                              for x in points])
    return values, grads


def _hex(rows):
    return [[float.hex(v) for v in row] for row in rows]


def _assert_block_runs_agree(s, points, monkeypatch):
    """evaluate_columns and gradient_columns against one-point runs at every
    crossover; returns, per crossover, whether the value and the gradient
    kernel's column runs vouched for the block."""
    values, grads = _point_runs(s, points)
    ran = []
    for columns_from in _crossovers(monkeypatch, len(points)):
        vals = evaluate_columns(s, points)
        out = gradient_columns(s, points)
        ran.append((vals is not None, out is not None))
        if vals is not None:
            assert columns_from <= len(points) and not isinstance(values[0], type)
            assert vals.shape == (len(points), len(s.exprs))
            assert _hex(vals.tolist()) == values
        if out is not None:
            assert columns_from <= len(points) and not isinstance(grads[0], type)
            vals, G = out
            assert vals.shape == (len(points), len(s.exprs))
            assert G.shape == (len(points), len(s.exprs), len(s.variables))
            assert _hex([*v, *sum(g, [])] for v, g in zip(vals.tolist(), G.tolist())) == grads
    return ran


# Per crossover (shipped, 0, past the block): both column runs vouch for a
# clean block of 30 points, except past the block, where it runs by rows.
CLEAN = [(True, True), (True, True), (False, False)]


def test_criterion_8_expressions_run_on_columns_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(8)
    for _ in range(150):
        s = Stack(tuple(parse(_random_expression(rng, NAMES), NAMES) for _ in range(2)), NAMES)
        points = rng.uniform(-2.0, 2.0, size=(30, 3))
        assert _assert_block_runs_agree(s, points, monkeypatch) == CLEAN
        assert _assert_block_runs_agree(s, points.tolist(), monkeypatch) == CLEAN


def _stacks(p):
    stacks = [p.constraint_stack, p.field_stack]
    if hasattr(p, "phi"):
        stacks += [p.phi_stack, p.elimination_stack]
    return stacks


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_problem_stacks_run_on_columns_bit_for_bit(name, request, monkeypatch):
    full, red = request.getfixturevalue(name)
    points = sample_feasible(red, 30, seed=3)
    for p, X in ((red, points), (full, np.array([red.lift(x) for x in points]))):
        for s in _stacks(p):
            assert _assert_block_runs_agree(s, X, monkeypatch) == CLEAN


# Formulas over (x1, x2, x3) and a point at which each fails, or, for the
# intermediate overflow, at which the rows give a finite value where a
# column run meets a floating-point exception.  With an infinite constant
# no block runs on columns.
FAILING = [
    ("x1 / x2", [1.0, 0.0, 0.0]),                    # division by zero
    ("x1 / x2", [np.inf, 0.0, 0.0]),                 # inf/0
    ("1e400 / x2 + x1", [1.0, 0.0, 0.0]),            # an inf constant over 0
    ("x1^400 + x2", [10.0, 1.0, 0.0]),               # a power that overflows
    ("(x1^400)^0 + x2", [10.0, 1.0, 0.0]),           # ... behind ^0
    ("1 / (x1 * 1e307 * x3) + x2", [10.0, 1.0, 10.0]),  # back to finite
    ("x1^0 + x2", [np.inf, 1.0, 0.0]),               # inf^0
    ("x1^2 + x2", [np.nan, 1.0, 0.0]),               # a NaN input
    ("x1 - x2", [np.inf, 1.0, 0.0]),                 # an inf input
    ("x1 * x2 * 1e300", [1e10, 1e10, 0.0]),          # a value that overflows
    ("1 / x1 + x2", [1e-160, 1.0, 0.0]),             # a tangent that overflows
    ("x1 + x2 + x3", [1.0, 2.0]),                    # a wrong coordinate count
]


@pytest.mark.parametrize("text, bad", FAILING)
def test_a_failing_point_makes_a_block_run_by_rows(text, bad, monkeypatch):
    s = Stack((parse(text, NAMES), parse("x1^2 - x3", NAMES)), NAMES)
    good = np.random.default_rng(4).uniform(1.0, 2.0, size=(29, 3)).tolist()
    points = good[:13] + [bad] + good[13:]
    assert not any(gradient for _, gradient in _assert_block_runs_agree(s, points, monkeypatch))
    assert _assert_block_runs_agree(s, good, monkeypatch) == (
        [(False, False)] * 3 if "1e400" in text else CLEAN)


def test_sampler_takes_the_same_draws_on_columns(p42, monkeypatch):
    _, red = p42
    want = checks_reference.sample_feasible(red, 50, 9)
    for _ in _crossovers(monkeypatch, io._SAMPLE_BLOCK):
        assert _bits(sample_feasible(red, 50, 9)) == _bits(want)


def test_sampler_raises_at_a_needed_draw_on_columns(monkeypatch):
    # g = x1 + 0*(1/(x1 - d)) divides by zero at the 41st draw only.
    draws = np.random.default_rng(5).uniform(-3.0, 3.0, size=(256, 2))
    names = ("x1", "x2")
    g = parse(f"x1 + 0*(1/(x1 - {float(draws[40, 0])!r}))", names)
    p = Problem(names=names, objective=parse("x1^2 + x2^2", names), inequalities=(g,))
    before = int((draws[:40, 0] <= 1e-12).sum())
    for _ in _crossovers(monkeypatch, io._SAMPLE_BLOCK):
        assert _bits(sample_feasible(p, before, 5)) == _bits(draws[:40][draws[:40, 0] <= 1e-12])
        with pytest.raises(EvalError, match="^division by zero$"):
            sample_feasible(p, before + 1, 5)


@pytest.mark.parametrize("map_text, error, message", [
    ("2 - x1 - x2", None, None),
    ("2 - x1 - 1.001*x2", ReductionError,
     "elimination violates an equality constraint by 2.302e-03 at a sampled point"),
    ("2 - x1 - x2 + 1/(x1 - x1)", EvalError, "division by zero"),
])
def test_reduce_checks_its_samples_alike_on_columns(map_text, error, message, monkeypatch):
    names = ("x1", "x2", "x3")
    p = Problem(names=names, objective=parse("x1^2 + x2^2 + x3^2", names),
                equalities=(parse("x1 + x2 + x3 - 2", names),))
    for _ in _crossovers(monkeypatch, REDUCE_SAMPLES):
        if error is None:
            assert reduce(p, [("x3", map_text)]).n == 2
        else:
            with pytest.raises(error) as exc:
                reduce(p, [("x3", map_text)])
            assert str(exc.value) == message


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_lift_block_lifts_on_columns_bit_for_bit(name, request, monkeypatch):
    """One column run of the map lifts a block, with ``lift``'s bits at
    each row.  A point where the map overflows makes the block run by
    rows, and its row keeps ``lift``'s error."""
    _, red = request.getfixturevalue(name)
    X = sample_feasible(red, 50, seed=7)
    cases = [(points, [_outcome(lambda x=x: [red.lift(x).tolist()]) for x in points])
             for points in (X, np.insert(X, 25, 1e308, axis=0))]
    assert [isinstance(want, tuple) for want in cases[1][1]].count(True) == 1
    tape = red.phi_stack.tape
    kernel, runs = tape.value_kernel, []

    def counted(runner):
        def run(*args):
            runs.append(runner)
            return getattr(kernel, runner)(*args)
        return run
    monkeypatch.setitem(tape.__dict__, "value_kernel",
                        type(kernel)(counted("rows"), counted("columns")))
    for (points, want), fails in zip(cases, (False, True)):
        for columns_from in _crossovers(monkeypatch, len(points)):
            runs.clear()
            lifted, errors = red.lift_block(points)
            rows = iter(lifted.tolist())
            assert [[[float.hex(v) for v in next(rows)]] if error is None
                    else (type(error), str(error)) for error in errors] == want
            assert next(rows, None) is None and lifted.shape[1] == red.parent.n
            by_rows = ["rows"] * len(points)
            if columns_from > len(points):
                assert runs == by_rows
            else:
                assert runs == ["columns"] + (by_rows if fails else [])


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_field_inputs_on_columns_keep_each_row_error(name, request, monkeypatch):
    # A finite infeasible row leaves a column run standing and is reported
    # from its values; an overflowing row makes the whole block run by rows.
    full, red = request.getfixturevalue(name)
    X = sample_feasible(red, 30, seed=6)
    for p, block_X in ((red, X), (full, np.array([red.lift(x) for x in X]))):
        params = FieldParams.default(p.n, p.k, sigma=1.0)
        for bad in (np.full(p.n, 3.0), np.full(p.n, 1e200)):
            points = np.insert(block_X, 15, bad, axis=0)
            lone = []
            for x in points:
                try:
                    lone.append(field_eval(p, params, x))
                except (field.FieldError, ExprError) as exc:
                    lone.append(exc)
            assert [j for j, want in enumerate(lone) if isinstance(want, Exception)] == [15]
            for _ in _crossovers(monkeypatch, len(points)):
                block, errors = field_block(p, params, points)
                kept = iter(range(len(block.x)))
                for want, error in zip(lone, errors):
                    if isinstance(want, Exception):
                        assert (type(error), str(error)) == (type(want), str(want))
                    else:
                        assert error is None
                        assert_same_field(block.row(next(kept)), want)
