import math
import time

import numpy as np
import pytest

from nlpflow import solver
from nlpflow.exprlang import EvalError, parse
from nlpflow.field import FieldError, FieldParams, field_eval
from nlpflow.io import sample_feasible
from nlpflow.kkt import kkt_residual, multipliers
from nlpflow.model import Problem, is_feasible
from nlpflow.solver import (FEAS_TOL, ProjectionFailure, SolveConfig,
                            active_index_set, project_inexact, solve)


def _disk():
    """min x1 s.t. x1^2 + x2^2 - 1 <= 0."""
    names = ("x1", "x2")
    return Problem(names=names, objective=parse("x1", names),
                   inequalities=(parse("x1^2 + x2^2 - 1", names),))


def test_sample_offsets_are_linspace_bit_for_bit():
    # The scan and the ray sample at these offsets; np.linspace gave them.
    rng = np.random.default_rng(2024)
    for span in (10.0 ** rng.uniform(-17, math.log10(200), 10_000)).tolist():
        for segments in {solver.CURV_SEGMENTS, solver.RAY_SAMPLES - 1}:
            got = np.array(solver._offsets(span, segments))
            assert got.tobytes() == np.linspace(0.0, span, segments + 1).tobytes()


# --- configuration ----------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(algorithm="newton"),
    dict(r=0.0),
    dict(epsilon=0.0),
    dict(armijo=0.0),
    dict(armijo=1.0),
    dict(max_iter=0),
    dict(algorithm="t31", epsilon=2.0, r=1.0),
    # Non-finite values.  t31 with r = inf would halve its step forever:
    # inf * 0.5 never falls below the floor STEP_FLOOR * inf.
    dict(algorithm="t31", r=math.inf),
    dict(r=math.inf),
    dict(r=math.nan),
    dict(epsilon=math.inf),
    dict(epsilon=math.nan),
    dict(stop_tol=math.nan),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        SolveConfig(**bad).validate()


def test_t31_epsilon_whose_square_overflows_is_a_config_error(p42):
    # active_index_set squares epsilon; past about 1.3e154 the square
    # overflows, which is a bad configuration, not a raw OverflowError.
    cfg = SolveConfig(algorithm="t31", r=1e200, epsilon=1e160)
    with pytest.raises(ValueError, match="epsilon"):
        cfg.validate()
    _, red = p42
    with pytest.raises(ValueError, match="epsilon"):
        solve(red, FieldParams.default(red.n, red.k), cfg, [-0.9, -1, 2])
    SolveConfig(algorithm="t31", r=1e200, epsilon=1e150).validate()
    SolveConfig(algorithm="r35", r=1e200, epsilon=1e160).validate()


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


def test_project_inexact_fails_at_a_zero_gradient():
    # g = 1 - x1^2 - x2^2 is violated at the origin, where its gradient is 0.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1", names),
                inequalities=(parse("1 - x1^2 - x2^2", names),))
    with pytest.raises(ProjectionFailure, match="^zero constraint gradient during projection$"):
        project_inexact(np.zeros(2), p, (0,))


def test_project_inexact_fails_where_no_step_reaches_feasibility():
    # g = x1^2 + 1 is positive everywhere: the linearized steps never land.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1", names),
                inequalities=(parse("x1^2 + 1", names),))
    with pytest.raises(ProjectionFailure,
                       match="^projection did not reach feasibility in 100 steps$"):
        project_inexact(np.array([2.0, 0.0]), p, (0,))


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


def _huge_gain():
    """min x1 + x2 s.t. -x1 - 5 <= 0 with sigma = 1e308: |F| is near 1e308."""
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1 + x2", names),
                inequalities=(parse("-x1 - 5", names),))
    return p, FieldParams.default(2, 1, sigma=1e308)


def test_record_norm_of_a_field_whose_square_overflows():
    p, params = _huge_gain()
    report = solve(p, params, SolveConfig(algorithm="t31", max_iter=1), np.zeros(2))
    assert report.records[0].normF == math.hypot(*field_eval(p, params, np.zeros(2)).F)
    assert 1e154 < report.records[0].normF < math.inf


def test_step_bound_whose_square_overflows_is_silent():
    # The r35 step bound squares the rate of g along F, here about 7e307.  On
    # Python floats the square is inf without a NumPy RuntimeWarning, which
    # pytest turns into a failure; the bound, and so the report, is the one
    # NumPy's inf gave.
    # The bound is 0, so the one step taken leaves x where it was and the
    # solve ends stalled (see test_step_that_leaves_x_unchanged_ends_stalled).
    p, params = _huge_gain()
    report = solve(p, params, SolveConfig(algorithm="r35", max_iter=1), np.zeros(2))
    assert report.termination == "stalled"
    for rec in report.records:
        assert rec.x.tolist() == [0.0, 0.0] and rec.theta == 0.0
        assert (rec.normF, rec.dtheta_F) == (1.217478166711729e+308, -1.6944444444444442e+308)
        assert (rec.step, rec.backtracks, rec.proj_used) == (0.0, 0, False)
    kkt = report.kkt
    assert (kkt.lam.tolist(), kkt.mu.tolist()) == ([], [0.1666666666666667])
    assert (kkt.stationarity_residual, kkt.complementarity_residual,
            kkt.mu_negativity, kkt.is_critical) == (1.3017082793177757, 0.8333333333333336,
                                                    0.0, False)


def test_step_that_leaves_x_unchanged_ends_stalled():
    # The r35 step bound is 0 here, so every iteration would accept the
    # same step of 0 from the same x; the first one ends the solve.
    p, params = _huge_gain()
    report = solve(p, params, SolveConfig(algorithm="r35", max_iter=150), np.zeros(2))
    assert report.termination == "stalled"
    assert report.diagnostic == ("accepted step 0.000e+00 left x unchanged "
                                 "at |F| = 1.217e+308")
    assert report.iterations == 0 and report.records[0].step == 0.0
    assert report.kkt is not None


def test_t31_candidate_that_overflows_is_rejected():
    # The first step lands at x2 = -1e308; the next full step's x2 overflows
    # to -inf, where theta is not finite.  That candidate is rejected, as an
    # infeasible one is, and the halved step is accepted.
    p, params = _huge_gain()
    report = solve(p, params, SolveConfig(algorithm="t31", max_iter=2), np.zeros(2))
    assert report.termination == "max_iter"
    assert [rec.x.tolist() for rec in report.records] == [
        [0.0, 0.0], [0.0, -1e308], [0.0, -1.5e308]]
    assert [(rec.step, rec.backtracks) for rec in report.records[:2]] == [
        (1.0, 0), (0.5, 1)]


@pytest.mark.parametrize("algo, r, x0, expected", [
    ("r35", 1.0, (-0.9, -1.0, 2.0), ("critical", 66, 0)),
    ("r35", 1.0, (-1.0, -1.0, -2.0), ("critical", 87, 0)),
    ("t31", 0.5, (-0.9, -1.0, 2.0), ("critical", 81, 139)),
    ("t31", 0.5, (-1.0, -1.0, -2.0), ("critical", 82, 115)),
    # Without the Armijo test's rounding allowance, t31 stalled here: the
    # required decrease fell below one ulp of theta near the minimizer and
    # the solve ran into max_iter after 2137 halvings.
    ("t31", 0.5, (-1.0, -1.0, 2.0), ("critical", 63, 5)),
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


@pytest.mark.parametrize("seed", [7, 8])
def test_r35_converges_from_drawn_starts(p42, seed):
    # With a constant increment of epsilon per rejection, 10 of the 24
    # seed-7 draws ran the rejection loop for minutes; doubling increments
    # take at most a few dozen rejections per step.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    for x0 in sample_feasible(red, 24, seed=seed):
        t0 = time.perf_counter()
        report = solve(red, params, SolveConfig(), x0)
        elapsed = time.perf_counter() - t0
        assert report.termination == "critical", x0
        assert math.dist(red.lift(report.final_x), (0.0, 1.0, 2.0, -1.0)) <= 1e-5
        assert elapsed < 1.0, (x0, elapsed)


def test_t31_converges_from_drawn_starts(p42):
    # Without the Armijo test's rounding allowance, 3 of these 30 draws
    # ended field_failure at the backtracking floor with |F| near 2e-9.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    cfg = SolveConfig(algorithm="t31", r=0.5, max_iter=200)
    for x0 in sample_feasible(red, 30, seed=11):
        report = solve(red, params, cfg, x0)
        assert report.termination == "critical", (x0, report.diagnostic)
        assert math.dist(red.lift(report.final_x), (0.0, 1.0, 2.0, -1.0)) <= 1e-5


def test_r35_rejecting_every_candidate_ends_inner_cap(p42, monkeypatch):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    monkeypatch.setattr(solver, "_accepts", lambda *args: False)
    t0 = time.perf_counter()
    report = solve(red, params, SolveConfig(), np.array([-0.9, -1.0, 2.0]))
    assert time.perf_counter() - t0 < 1.0
    assert report.termination == "inner_cap"
    assert "curvature increments exhausted" in report.diagnostic
    assert report.iterations == 0


def _bits_of_kkt(rep):
    return (rep.lam.tobytes(), rep.mu.tobytes(),
            np.array([rep.stationarity_residual, rep.complementarity_residual,
                      rep.mu_negativity]).tobytes(), rep.is_critical)


@pytest.mark.parametrize("algo, max_iter, fail_at, termination", [
    ("r35", 150, None, "critical"),
    ("t31", 5, None, "max_iter"),
    ("r35", 150, 4, "field_failure"),
])
def test_solve_reports_from_the_field_of_its_last_record(p42, count_calls, monkeypatch,
                                                        algo, max_iter, fail_at, termination):
    # One field assembly per record, and one more only where the last one
    # failed; the KKT report takes its multipliers from the last record's.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    counts = count_calls(field_eval)
    if fail_at is not None:
        counted = solver.field_eval

        def failing(*args):
            fe = counted(*args)
            if counts["field_eval"] == fail_at:
                raise FieldError("injected assembly failure")
            return fe
        monkeypatch.setattr(solver, "field_eval", failing)
    report = solve(red, params, SolveConfig(algorithm=algo, max_iter=max_iter),
                   np.array([-0.9, -1.0, 2.0]))
    assert report.termination == termination
    assert counts["field_eval"] == len(report.records) + (fail_at is not None)
    x = report.final_x
    want = kkt_residual(red, x, *multipliers(red, field_eval(red, params, x)))
    assert _bits_of_kkt(report.kkt) == _bits_of_kkt(want)


@pytest.mark.parametrize("algo", ["r35", "t31"])
def test_kernel_error_in_a_later_field_ends_field_failure(p42, monkeypatch, algo):
    # An EvalError from the field's kernels (a gradient that overflows where
    # the value does not) ends the solve as a FieldError does, with the
    # kernel's message and the KKT report of the last record.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise EvalError("non-finite value in derivative sweep")
        return field_eval(*args)
    monkeypatch.setattr(solver, "field_eval", failing)
    report = solve(red, params, SolveConfig(algorithm=algo), np.array([-0.9, -1.0, 2.0]))
    assert (report.termination, report.diagnostic) == (
        "field_failure", "non-finite value in derivative sweep")
    assert len(report.records) == 2 and report.kkt is not None


@pytest.mark.parametrize("r", [1e100, 1e200, 1e300])
def test_r35_scan_halves_a_span_whose_kernels_overflow(p42, r):
    # The first scan over [0, r] overflows; it is halved until it runs.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    report = solve(red, params, SolveConfig(r=r, max_iter=2), np.array([-0.9, -1.0, 2.0]))
    assert report.termination == "max_iter" and report.iterations == 2
    assert report.kkt is not None


def test_t31_backtracking_floor_ends_field_failure(p42, monkeypatch):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    steps = []

    def rejects(p, cfg, rec, s, y):
        steps.append(s)
        return False
    monkeypatch.setattr(solver, "_accepts", rejects)
    report = solve(red, params, SolveConfig(algorithm="t31", r=0.5),
                   np.array([-0.9, -1.0, 2.0]))
    assert report.termination == "field_failure" and report.iterations == 0
    assert report.diagnostic == "backtracking step fell below the floor"
    # Steps 0.5, 0.25, ..., 0.5 * 2^-46: the next falls below 1e-14 * r.
    assert steps == [0.5 * 0.5 ** i for i in range(47)]
    assert report.kkt is not None


def test_scan_that_fails_at_every_span_ends_field_failure(p42, monkeypatch):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    scans = []

    def overflowing(stack, points, u):
        scans.append(len(points))
        raise EvalError("overflow: Numerical result out of range")
    monkeypatch.setattr(solver, "jvp_block", overflowing)
    report = solve(red, params, SolveConfig(), np.array([-0.9, -1.0, 2.0]))
    assert report.termination == "field_failure" and report.iterations == 0
    assert report.diagnostic == ("curvature scan failed at every span down to 1e-08: "
                                 "overflow: Numerical result out of range")
    # Spans 1, 1/2, ..., 2^-26: the next halving falls below SPAN_FLOOR.
    assert len(scans) == 27 and report.kkt is not None
