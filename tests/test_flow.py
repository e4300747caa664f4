import numpy as np
import pytest

import flow_reference as ref
from flow_reference import check_theta_monotone
from nlpflow.exprlang import parse
from nlpflow.field import FieldParams
from nlpflow.flow import euler_flow, phase_grid
from nlpflow.model import Problem
from test_lockstep import assert_same_trajectories, frozen_from, package_field


def _quadratic_bowl():
    names = ("x1", "x2")
    return Problem(names=names,
                   objective=parse("0.5*(x1^2 + x2^2)", names))


def test_unconstrained_flow_is_geometric():
    # F = -x for the bowl, so Euler contracts by (1 - step) each step.
    p = _quadratic_bowl()
    params = FieldParams.default(2, 0)
    x0 = np.array([1.0, -2.0])
    traj = euler_flow(p, params, x0, step=0.1, steps=30)
    assert traj.status == "completed"
    assert len(traj) == 31
    for i in range(31):
        assert np.allclose(traj.x[i], 0.9 ** i * x0, rtol=1e-12, atol=0)
    assert np.allclose(traj.t, 0.1 * np.arange(31))


def test_zero_steps_records_start_only():
    p = _quadratic_bowl()
    params = FieldParams.default(2, 0)
    traj = euler_flow(p, params, np.array([1.0, 1.0]), step=0.1, steps=0)
    assert len(traj) == 1
    assert np.array_equal(traj.x[0], [1.0, 1.0])


def test_flow_rejects_bad_inputs(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k)
    with pytest.raises(ValueError):
        euler_flow(red, params, np.array([0.5, 0.5]), step=0.0, steps=10)
    with pytest.raises(ValueError):
        euler_flow(red, params, np.array([5.0, 5.0]), step=0.1, steps=10)


def test_equalities_preserved_along_full_space_flow(p41):
    full, _ = p41
    params = FieldParams.default(full.n, full.k, sigma=2.0)
    traj = euler_flow(full, params, np.array([0.5, 0.5, 1.0]),
                      step=0.01, steps=2000)
    assert traj.status == "completed"
    assert np.max(traj.max_abs_h) <= 1e-3
    assert check_theta_monotone(traj)
    assert np.linalg.norm(traj.x[-1] - [0.0, 0.0, 2.0]) <= 1e-2


def test_flow_stays_put_at_critical_point(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    x_star = np.array([0.0, 1.0, 2.0])
    traj = euler_flow(red, params, x_star, step=0.1, steps=50)
    assert traj.status == "completed"
    assert np.max(traj.normF) <= 1e-10
    assert np.max(np.linalg.norm(traj.x - x_star, axis=1)) <= 1e-8


def test_theta_monotone_detects_increase():
    p = _quadratic_bowl()
    params = FieldParams.default(2, 0)
    traj = euler_flow(p, params, np.array([1.0, 0.0]), step=0.1, steps=5)
    assert check_theta_monotone(traj)
    traj.theta = traj.theta[::-1].copy()
    assert not check_theta_monotone(traj)


def test_phase_grid_checks_the_step_before_the_grid(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k)
    for step in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="step must be positive"):
            phase_grid(red, params, plane=(0, 1), ranges=(5.0, 6.0, 5.0, 6.0),
                       counts=(2, 2), base=np.zeros(2), step=step, steps=3)


def test_phase_grid_skips_infeasible(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k, sigma=2.0)
    grid = phase_grid(red, params, plane=(0, 1),
                      ranges=(0.0, 1.5, 0.0, 1.5), counts=(4, 4),
                      base=np.zeros(2), step=0.01, steps=50)
    assert len(grid.trajectories) == len(grid.starts)
    assert len(grid.trajectories) + len(grid.skipped) == 16
    assert len(grid.skipped) > 0
    for traj in grid.trajectories:
        assert check_theta_monotone(traj)


def test_a_zero_that_changes_sign_has_moved(block_rows):
    # F = (5e-324, -0.0) at the origin, and 0.1 * 5e-324 rounds to +0.0, so
    # the first step takes x1 from -0.0 to +0.0: equal as floats, but a
    # move.  The start is evaluated again, and the second step freezes it.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x2^2 - 5e-324*x1", names))
    params = FieldParams.default(2, 0)
    traj = euler_flow(p, params, np.array([-0.0, 0.0]), step=0.1, steps=5)
    assert len(block_rows) == 2 and frozen_from(traj) == 1
    assert [x.hex() for x in traj.x[:, 0]] == ["-0x0.0p+0"] + ["0x0.0p+0"] * 5
    assert_same_trajectories([traj], [ref.euler_flow(p, params, [-0.0, 0.0], 0.1, 5,
                                                     field=package_field)])


def test_a_frozen_row_leaves_every_later_block(p41, block_rows):
    # Criterion 7's settings on the benchmark's grid: each trajectory is
    # in the blocks up to the step at which it freezes and in none after,
    # and once both have frozen no block is assembled.
    _, red = p41
    grid = phase_grid(red, FieldParams.default(red.n, red.k, sigma=2.0), plane=(0, 1),
                      ranges=(0.0, 1.5, 0.01, 1.51), counts=(2, 2),
                      base=np.zeros(2), step=0.01, steps=2000)
    frozen = [frozen_from(traj) for traj in grid.trajectories]
    assert max(frozen) < 2000 and min(frozen) < max(frozen)
    assert len(block_rows) == max(frozen) + 1
    for i, rows in enumerate(block_rows):
        assert rows == [traj.x[i].tobytes() for traj, f in zip(grid.trajectories, frozen)
                        if i <= f]
