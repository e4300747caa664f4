import numpy as np
import pytest

from nlpflow.exprlang import parse
from nlpflow.field import FieldParams, field_eval
from nlpflow.model import Problem, is_feasible
from nlpflow.solver import (FEAS_TOL, ProjectionFailure, SolveConfig,
                            active_index_set, project_inexact, solve)


def _disk():
    """min x1 s.t. x1^2 + x2^2 - 1 <= 0."""
    names = ("x1", "x2")
    return Problem(names=names, objective=parse("x1", names),
                   inequalities=(parse("x1^2 + x2^2 - 1", names),))


# --- configuration ----------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(algorithm="newton"),
    dict(r=0.0),
    dict(epsilon=0.0),
    dict(armijo=0.0),
    dict(armijo=1.0),
    dict(max_iter=0),
    dict(algorithm="t31", epsilon=2.0, r=1.0),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        SolveConfig(**bad).validate()


def test_config_defaults_valid():
    SolveConfig().validate()


# --- inner-loop building blocks ---------------------------------------------

def test_active_index_set_flags_nearby_constraint(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k, sigma=2.0)
    # interior point, large epsilon: everything within reach is flagged
    fe = field_eval(red, params, np.array([0.2, 0.2]))
    near = active_index_set(red, fe, np.array([0.2, 0.2]), epsilon=1.0)
    far = active_index_set(red, fe, np.array([0.2, 0.2]), epsilon=1e-12)
    assert set(far) <= set(near)
    assert len(near) >= 1
    assert far == ()


def test_project_inexact_onto_disk():
    p = _disk()
    y = project_inexact(np.array([2.0, 0.0]), p, (0,))
    assert np.allclose(y, [1.0, 0.0], atol=1e-7)
    from nlpflow.model import residuals
    _, g = residuals(p, y)
    assert np.max(g) <= FEAS_TOL


def test_project_inexact_noop_when_feasible():
    p = _disk()
    y = project_inexact(np.array([0.1, 0.2]), p, (0,))
    assert np.array_equal(y, [0.1, 0.2])


def test_project_inexact_requires_indices():
    with pytest.raises(ValueError):
        project_inexact(np.array([2.0, 0.0]), _disk(), ())


# --- solves -----------------------------------------------------------------

def test_iterates_stay_feasible(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    for algo in ("r35", "t31"):
        cfg = SolveConfig(algorithm=algo, r=0.5, max_iter=60)
        report = solve(red, params, cfg, np.array([-1.0, -1.0, -2.0]))
        for rec in report.records:
            assert is_feasible(red, rec.x, tol=FEAS_TOL)


def test_both_algorithms_reach_critical(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k, sigma=2.0)
    x0 = np.array([0.5, 0.5])
    for algo in ("r35", "t31"):
        report = solve(red, params, SolveConfig(algorithm=algo), x0)
        assert report.termination == "critical"
        assert np.linalg.norm(report.final_x) <= 1e-6
        assert report.kkt is not None and report.kkt.is_critical


def test_armijo_ledger_per_step(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    cfg = SolveConfig(algorithm="r35", max_iter=100)
    report = solve(red, params, cfg, np.array([-0.9, -1.0, 2.0]))
    recs = report.records
    for prev, nxt in zip(recs[:-1], recs[1:]):
        # accepted steps satisfy the sufficient-decrease inequality
        assert nxt.theta <= prev.theta + cfg.armijo * prev.step * prev.dtheta_F + 1e-12


def test_theta_decreases_up_to_rounding(p42):
    # acceptance allows rounding-level theta noise, nothing more
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    report = solve(red, params, SolveConfig(max_iter=100),
                   np.array([-0.9, -1.0, 2.0]))
    th = [rec.theta for rec in report.records]
    assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(th[:-1], th[1:]))
    assert th[-1] < th[0]


def test_solver_requires_inequality_only_problem(p41):
    from nlpflow.solver import SolveError
    full, _ = p41
    params = FieldParams.default(full.n, full.k)
    with pytest.raises(SolveError):
        solve(full, params, SolveConfig(), np.array([0.5, 0.5, 1.0]))


def test_solver_rejects_infeasible_start(p41):
    from nlpflow.solver import SolveError
    _, red = p41
    params = FieldParams.default(red.n, red.k)
    with pytest.raises(SolveError):
        solve(red, params, SolveConfig(), np.array([5.0, 5.0]))


def test_max_iter_termination(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    report = solve(red, params, SolveConfig(max_iter=3),
                   np.array([-0.9, -1.0, 2.0]))
    assert report.termination == "max_iter"
    assert report.iterations == 3


@pytest.mark.parametrize("algo, r, x0, expected", [
    ("r35", 1.0, (-0.9, -1.0, 2.0), ("critical", 66, 0)),
    ("r35", 1.0, (-1.0, -1.0, -2.0), ("critical", 87, 0)),
    ("t31", 0.5, (-0.9, -1.0, 2.0), ("critical", 81, 139)),
    ("t31", 0.5, (-1.0, -1.0, -2.0), ("critical", 88, 159)),
    # The t31 stall: from here |F| stops short of stop_tol near the
    # minimizer and the solve runs into max_iter.  A fix for the stall
    # must change this row.
    ("t31", 0.5, (-1.0, -1.0, 2.0), ("max_iter", 150, 2137)),
], ids=["r35:-0.9,-1,2", "r35:-1,-1,-2", "t31:-0.9,-1,2", "t31:-1,-1,-2",
        "t31:-1,-1,2"])
def test_pinned_solves(p42, algo, r, x0, expected):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    cfg = SolveConfig(algorithm=algo, r=r, max_iter=150)
    report = solve(red, params, cfg, np.array(x0))
    backtracks = sum(rec.backtracks for rec in report.records)
    assert (report.termination, report.iterations, backtracks) == expected


def test_field_failure_at_start_gives_empty_report():
    # Both constraints are active at x0 with parallel gradients: Q is singular.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1^2 + x2^2 - x1", names),
                inequalities=(parse("x1", names), parse("2*x1", names)))
    report = solve(p, FieldParams.default(2, 2), SolveConfig(),
                   np.array([0.0, 1.0]))
    assert report.termination == "field_failure"
    assert "not positive definite" in report.diagnostic
    assert report.records == [] and report.kkt is None
