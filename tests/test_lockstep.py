"""The stacked field assembly and the lockstep flow, bit for bit against
the one-point, one-trajectory reference in ``flow_reference``."""

import dataclasses

import numpy as np
import pytest

import flow_reference as ref
from nlpflow.exprlang import EvalError, parse
from nlpflow.field import FieldParams, field_block, field_eval
from nlpflow.flow import _advance, euler_flow, phase_grid
from nlpflow.io import sample_feasible
from nlpflow.model import Problem


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def assert_same_field(got, want):
    for f in dataclasses.fields(want):
        if f.name != "params":
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.status, a.diagnostic) == (b.status, b.diagnostic)
        for name in ("t", "x", "theta", "normF", "max_g", "max_abs_h"):
            assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


def _grid_pair(p, params, **grid):
    got = phase_grid(p, params, **grid)
    want = ref.phase_grid(p, params, **grid)
    for name in ("starts", "skipped"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name))
    assert_same_trajectories(got.trajectories, want.trajectories)
    return got


@pytest.mark.parametrize("d1, d2", [(0.0, 0.01), (0.013, 0.037)])
def test_phase_benchmark_shape_matches_reference(p41, d1, d2):
    # The benchmark's phase op: a 2x2 grid over a shifted [0, 1.5]^2,
    # two feasible starts, 2000 steps.
    _, red = p41
    grid = _grid_pair(red, FieldParams.default(red.n, red.k, sigma=2.0), plane=(0, 1),
                      ranges=(d1, 1.5 + d1, d2, 1.5 + d2), counts=(2, 2),
                      base=np.zeros(2), step=0.01, steps=2000)
    assert len(grid.trajectories) == 2


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
    assert_same_trajectories(lockstep, [ref.euler_flow(full, params, x0, 0.01, 100)
                                        for x0 in starts])


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
    assert_same_trajectories(lockstep, [ref.euler_flow(p, params, x0, 1.5, 10)
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


def test_first_expression_error_in_start_order_is_raised():
    # The first start sits at a critical point.  The second overflows x1^9
    # at step 1, once the huge gain has flung x1 out; the third divides by
    # zero at step 0.  Integrating one trajectory after another meets the
    # overflow first, so the lockstep flow must raise it.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1^9 + 0/x2", names))
    params = FieldParams.default(2, 0, sigma=1e305)
    starts = [np.array([0.0, 1.0]), np.array([1e-30, 1.0]), np.array([0.0, 0.0])]
    with pytest.raises(EvalError) as want:
        for x0 in starts:
            euler_flow(p, params, x0, 0.1, 5)
    with pytest.raises(EvalError) as got:
        _advance(p, params, starts, 0.1, 5)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("overflow")


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
            assert_same_field(fe, ref.field_eval(p, params, x))
            row = dataclasses.replace(fe, **{k: v[j] for k, v in block._asdict().items()})
            assert_same_field(row, fe)


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
        fe = field_eval(p, params, X[r])
        row = dataclasses.replace(fe, **{k: v[j] for k, v in block._asdict().items()})
        assert_same_field(row, fe)
