import math
import pathlib
import sys
import time

import numpy as np
import pytest

from nlpflow import solver
from nlpflow.exprlang import EvalError, evaluate_stack, parse, ray_polynomials
from nlpflow.field import FieldError, FieldParams, field_eval
from nlpflow.io import load_problem, sample_feasible
from nlpflow.kkt import kkt_residual, multipliers
from nlpflow.model import Problem, is_feasible
from nlpflow.solver import (FEAS_TOL, ProjectionFailure, SolveConfig,
                            active_index_set, project_inexact, solve)

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


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
    # Non-finite values.  t31 with r = inf would halve its step forever:
    # inf * 0.5 never falls below the floor STEP_FLOOR * inf.
    dict(algorithm="t31", r=math.inf),
    dict(r=math.inf),
    dict(r=math.nan),
    dict(epsilon=math.inf),
    dict(epsilon=math.nan),
    dict(stop_tol=math.nan),
    dict(algorithm="t31", armijo=0.0),
    dict(algorithm="t31", armijo=1.0),
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
    # The rate of g along F is about 7e307 here, so its square, and theta's
    # c_2 along F, overflow.  On Python floats that is an inf without a NumPy
    # RuntimeWarning, which pytest turns into a failure; the r35 step bound
    # is taken along a scaled ray instead, and ends where g reaches BETA.
    p, params = _huge_gain()
    report = solve(p, params, SolveConfig(algorithm="r35", max_iter=1), np.zeros(2))
    assert report.termination == "max_iter"
    first, last = report.records
    assert first.x.tolist() == [0.0, 0.0] and first.theta == 0.0
    assert (first.normF, first.dtheta_F) == (1.217478166711729e+308, -1.6944444444444442e+308)
    assert (first.step, first.backtracks, first.proj_used) == (7.200000000072001e-308, 0, True)
    assert last.x.tolist() == report.final_x.tolist() == [-5.0, -7.200000000072001]
    kkt = report.kkt
    assert (kkt.lam.tolist(), kkt.mu.tolist()) == ([], [1.0])
    assert (kkt.stationarity_residual, kkt.complementarity_residual,
            kkt.mu_negativity, kkt.is_critical) == (1.0, 0.0, 0.0, False)


def test_step_that_leaves_x_unchanged_ends_stalled():
    # r35 on a field near the largest float, on Python floats, so without a
    # NumPy RuntimeWarning, which pytest turns into a failure.  The first
    # step ends where g reaches BETA, and the candidate is snapped onto the
    # facet x1 = -5; along it x2 runs to the largest float, where a step of
    # 5.6e-17 leaves x unchanged: every later iteration would repeat it.
    p, params = _huge_gain()
    report = solve(p, params, SolveConfig(algorithm="r35", max_iter=150), np.zeros(2))
    first = report.records[0]
    assert (first.normF, first.dtheta_F) == (1.217478166711729e+308, -1.6944444444444442e+308)
    assert (first.step, first.backtracks, first.proj_used) == (7.200000000072001e-308, 0, True)
    assert report.records[1].x.tolist() == [-5.0, -7.200000000072001]
    assert report.termination == "stalled"
    assert report.diagnostic == ("accepted step 5.551e-17 left x unchanged "
                                 "at |F| = 1.000e+308")
    assert report.iterations == 28 and report.final_x.tolist() == [-5.0, -sys.float_info.max]
    kkt = report.kkt
    assert (kkt.lam.tolist(), kkt.mu.tolist()) == ([], [1.0])
    assert (kkt.stationarity_residual, kkt.complementarity_residual,
            kkt.mu_negativity, kkt.is_critical) == (1.0, 0.0, 0.0, False)


def test_smallest_r_ends_stalled(p42):
    # r35 takes any finite r > 0; the smallest makes a step too small to
    # move x, which ends the solve at once.
    _, red = p42
    report = solve(red, FieldParams.default(red.n, red.k, sigma=0.2),
                   SolveConfig(r=5e-324, max_iter=3), [-0.9, -1, 2])
    assert (report.termination, report.iterations) == ("stalled", 0)
    assert report.diagnostic == "accepted step 4.941e-324 left x unchanged at |F| = 3.848e+00"


def test_r35_steps_along_a_scaled_ray_as_along_an_unscaled_one():
    # min x1^2 + x2^2 with |F| near 2e200: theta's c_2 along F overflows,
    # so r35 takes its step bound along F * 2^-192 and maps it back; each
    # step then lands where it lands at sigma 1e150, whose ray needs no
    # scaling, to within rounding.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1^2 + x2^2", names),
                inequalities=(parse("x1 - 5", names),))
    paths = []
    for sigma in (1e200, 1e150):
        params = FieldParams.default(2, 1, sigma=sigma)
        fe = field_eval(p, params, np.ones(2))
        assert solver._ray(p.field_stack, np.ones(2), fe.F)[1] == (
            2.0 ** -192 if sigma == 1e200 else 1.0)
        report = solve(p, params, SolveConfig(max_iter=8), np.ones(2))
        assert report.termination == "max_iter"
        paths.append(np.array([rec.x for rec in report.records]))
    assert np.allclose(*paths, rtol=1e-12, atol=0.0)
    assert np.abs(paths[0][-1]).max() < 1e-5


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


def _snap_jump():
    """min x1^100 + (x2 + 0.5)^2 s.t. -x2 <= 0 and 1e-120 * (x1^3 - 1) <= 0.

    From (0.01, 1) the second constraint lies in the snap band, and its
    gradient is so small that a Newton step onto it moves x1 to about
    3333, where theta overflows.
    """
    names = ("x1", "x2")
    return Problem(names=names, objective=parse("x1^100 + (x2 + 0.5)^2", names),
                   inequalities=(parse("-x2", names), parse("1e-120*(x1^3 - 1)", names)))


@pytest.mark.parametrize("algo, r, termination, iterations", [
    ("r35", 1.0, "critical", 1),
    ("t31", 0.5, "critical", 29),
])
def test_candidate_whose_kernels_raise_is_rejected(algo, r, termination, iterations):
    # Both policies reject a candidate at which the snap, the projection or
    # the acceptance test raises, as they reject an infeasible one.  r35's
    # snap leaves out the facet whose Newton step would reach the overflow:
    # that step is far longer than the candidate's own.
    report = solve(_snap_jump(), FieldParams.default(2, 2),
                   SolveConfig(algorithm=algo, r=r, max_iter=50), np.array([0.01, 1.0]))
    assert (report.termination, report.iterations) == (termination, iterations)
    assert report.kkt is not None


def test_r35_candidate_that_raises_ends_inner_cap_naming_the_error(p42, monkeypatch):
    # Every acceptance test raises, so the halvings run out, and the
    # diagnostic names the error without running the kernel again.
    _, red = p42

    def overflowing(e, x):
        raise EvalError("overflow: Numerical result out of range")
    monkeypatch.setattr(solver, "evaluate", overflowing)
    report = solve(red, FieldParams.default(red.n, red.k, sigma=0.2), SolveConfig(),
                   np.array([-0.9, -1.0, 2.0]))
    assert (report.termination, report.iterations) == ("inner_cap", 0)
    assert report.diagnostic == ("64 step halvings exhausted; the last candidate "
                                 "failed: overflow: Numerical result out of range")


def _flat_facet():
    """min (x1-1)^2 + (x2+0.5)^2 s.t. -x2 <= 0 and 0*x1 - 1e-11 <= 0.

    The second constraint lies in the snap band everywhere, with a zero
    gradient, so no Newton step can move onto it.
    """
    names = ("x1", "x2")
    return Problem(names=names, objective=parse("(x1-1)^2 + (x2+0.5)^2", names),
                   inequalities=(parse("-x2", names), parse("0*x1 - 1e-11", names)))


@pytest.mark.parametrize("algo, r, iterations", [("r35", 1.0, 2), ("t31", 0.5, 29)])
def test_zero_gradient_facet_in_the_snap_band_is_left_out(algo, r, iterations):
    # The snap leaves the flat facet out of its step and snaps onto g_0
    # alone; a snap that failed on the zero gradient ended r35 inner_cap.
    report = solve(_flat_facet(), FieldParams.default(2, 2, sigma=1.0),
                   SolveConfig(algorithm=algo, r=r, max_iter=200), np.array([3.0, 2.0]))
    assert (report.termination, report.iterations) == ("critical", iterations)
    if algo == "r35":
        assert [rec.proj_used for rec in report.records] == [True, False, False]
        assert report.final_x.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("algo, r, x0, expected", [
    ("r35", 1.0, (-0.9, -1.0, 2.0), ("critical", 48, 10)),
    ("r35", 1.0, (-1.0, -1.0, -2.0), ("critical", 66, 18)),
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
    # seed-7 draws ran the rejection loop for minutes; a rejection now
    # halves the step, at most MAX_HALVINGS times.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    for x0 in sample_feasible(red, 24, seed=seed):
        t0 = time.perf_counter()
        report = solve(red, params, SolveConfig(), x0)
        elapsed = time.perf_counter() - t0
        assert report.termination == "critical", x0
        assert math.dist(red.lift(report.final_x), (0.0, 1.0, 2.0, -1.0)) <= 1e-5
        assert elapsed < 1.0, (x0, elapsed)


@pytest.mark.parametrize("r", [1.0, 10.0, 1e4, 1e100, 1e200, 1e300])
def test_r35_converges_at_every_r(p42, r):
    # The step bound is the exact root of the ray polynomials, so r only
    # caps it.  With the curvature scan every r >= 10 crawled to max_iter,
    # at steps of 1e-8 from r = 1e4, and the scan halved its span from r.
    _, red = p42
    report = solve(red, FieldParams.default(red.n, red.k, sigma=0.2),
                   SolveConfig(r=r, max_iter=150), np.array([-0.9, -1.0, 2.0]))
    assert report.termination == "critical" and report.iterations <= 150
    assert math.dist(red.lift(report.final_x), (0.0, 1.0, 2.0, -1.0)) <= 1e-5


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
    steps = []

    def rejects(p, cfg, rec, s, y, g):
        steps.append(s)
        return False
    monkeypatch.setattr(solver, "_accepts", rejects)
    t0 = time.perf_counter()
    report = solve(red, params, SolveConfig(), np.array([-0.9, -1.0, 2.0]))
    assert time.perf_counter() - t0 < 1.0
    assert report.termination == "inner_cap"
    assert report.diagnostic.startswith("64 step halvings exhausted; most violated constraint")
    assert report.iterations == 0
    # Each rejection halves the first step, which the ray bounds below r.
    assert steps == [steps[0] * 0.5 ** i for i in range(65)] and 0.0 < steps[0] < 1.0


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


def test_t31_backtracking_floor_ends_field_failure(p42, monkeypatch):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    steps = []

    def rejects(p, cfg, rec, s, y, g):
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


def test_reduced_r35_scan_runs_the_field_stack(monkeypatch):
    # With no equalities the field stack is (theta, g_1, ..., g_k): the
    # step bound scans the stack's ray polynomials for their roots.
    _, red = load_problem(PROBLEMS / "p42.nlp")
    stacks = []

    def recording(stack, x, u):
        stacks.append(stack)
        return ray_polynomials(stack, x, u)
    monkeypatch.setattr(solver, "ray_polynomials", recording)
    report = solve(red, FieldParams.default(red.n, red.k, sigma=0.2), SolveConfig(max_iter=5),
                   np.array([-0.9, -1.0, 2.0]))
    assert report.iterations == 5 and stacks
    assert all(stack is red.field_stack for stack in stacks)
    assert red.field_stack.exprs == (red.objective, *red.inequalities)


@pytest.mark.parametrize("algo, why", [
    ("r35", "ray run failed"),
    ("t31", "Euler-ray sampling failed at epsilon = 1e-06")])
def test_ray_run_that_fails_ends_field_failure(p42, monkeypatch, algo, why):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)

    def failing(stack, x, u):
        raise EvalError("non-finite value in derivative sweep")
    monkeypatch.setattr(solver, "ray_polynomials", failing)
    report = solve(red, params, SolveConfig(algorithm=algo, r=0.5),
                   np.array([-0.9, -1.0, 2.0]))
    assert (report.termination, report.iterations) == ("field_failure", 0)
    assert report.diagnostic == f"{why}: non-finite value in derivative sweep"
    assert report.kkt is not None


@pytest.mark.parametrize("algo, spans", [("r35", (1.0, 1e200)), ("t31", (0.5,))])
def test_every_iteration_makes_one_ray_run(p42, monkeypatch, algo, spans):
    # The step bound or the active set, rejections and backtracks run no
    # kernel along the ray: one ray run per iteration, whatever they number,
    # at every r.
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    runs = []

    def counting(stack, x, u):
        runs.append(stack)
        return ray_polynomials(stack, x, u)
    monkeypatch.setattr(solver, "ray_polynomials", counting)
    stack = red.field_stack if algo == "r35" else red.constraint_stack
    backtracks = 0
    for start in ((-0.9, -1.0, 2.0), (-1.0, -1.0, -2.0)):
        for r in spans:
            runs.clear()
            report = solve(red, params, SolveConfig(algorithm=algo, r=r, max_iter=20),
                           np.array(start))
            assert (report.termination, report.iterations) == ("max_iter", 20)
            assert len(runs) == 20 and all(s is stack for s in runs)
            backtracks += sum(rec.backtracks for rec in report.records)
    assert backtracks > 0


def test_projection_onto_no_facet_is_one_stack_run(p42):
    # An unprojected t31 candidate: the point as a float array, and the
    # bits of the one constraint-stack run there.
    _, red = p42
    for y in ([-0.9, -1.0, 2.0], np.array([3, -2, 1]), (0.5, 1e50, -0.0)):
        got, g = solver._project_inexact(y, red, ())
        assert got.dtype == np.float64 and got.tolist() == [float(v) for v in y]
        want = evaluate_stack(red.constraint_stack, y)
        assert [math.copysign(1.0, v) for v in g] == [math.copysign(1.0, v) for v in want]
        assert g == want
