"""End-to-end acceptance suite.

Each test prints a single ``criterion N ... PASS``/``FAIL`` line (run
pytest with ``-s`` or check captured output on failure).  Tolerances and
iteration budgets are pinned; see the README for the rationale behind
each number.
"""

import math

import numpy as np
import pytest

from flow_reference import check_theta_monotone
from nlpflow import (FieldParams, SolveConfig, field_eval, phase_grid,
                     solve)
from nlpflow.checks import criticality_agreement, identity_violations
from nlpflow.exprlang import grad, parse
from nlpflow.io import sample_feasible, solve_report_csv

X41_RED = np.array([0.0, 0.0])          # reduced image of (0, 0, 2)
X42_FULL = np.array([0.0, 1.0, 2.0, -1.0])

# Reports from criteria 1-3 are reused by the descent-ledger and
# determinism criteria; cache them so each run happens once.
_cache = {}


def _hit_iteration(report, target, tol, lift=None):
    """First iterate within ``tol`` of ``target`` (None if never)."""
    for i, rec in enumerate(report.records):
        x = lift(rec.x) if lift is not None else rec.x
        if np.linalg.norm(x - target) <= tol:
            return i
    return None


def _runs_41(p41):
    if "c1" not in _cache:
        _, red = p41
        starts = sample_feasible(red, 20, seed=7)
        runs = []
        for sigma in (0.01, 2.0, 200.0):
            params = FieldParams.default(red.n, red.k, sigma=sigma)
            cfg = SolveConfig(algorithm="r35", max_iter=12)
            for x0 in starts:
                runs.append((sigma, x0, solve(red, params, cfg, x0)))
        _cache["c1"] = runs
    return _cache["c1"]


def _timed_solve(p, params, cfg, x0):
    import time
    t0 = time.perf_counter()
    report = solve(p, params, cfg, x0)
    return report, time.perf_counter() - t0


def _runs_42_r35(p42):
    if "c2" not in _cache:
        _, red = p42
        params = FieldParams.default(red.n, red.k, sigma=0.2)
        cfg = SolveConfig(algorithm="r35", max_iter=150)
        runs = [(np.array([-0.9, -1.0, 2.0]), 60),
                (np.array([-1.0, -1.0, -2.0]), 80)]
        _cache["c2"] = [(x0, budget) + _timed_solve(red, params, cfg, x0)
                        for x0, budget in runs]
    return _cache["c2"]


def _run_42_t31(p42):
    if "c3" not in _cache:
        _, red = p42
        params = FieldParams.default(red.n, red.k, sigma=0.2)
        cfg = SolveConfig(algorithm="t31", r=0.5, max_iter=150)
        _cache["c3"] = _timed_solve(red, params, cfg,
                                    np.array([-1.0, -1.0, 2.0]))
    return _cache["c3"]


def _verdict(num, label, ok, detail=""):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_problem41_three_gains(p41):
    import time
    _, red = p41
    t0 = time.perf_counter()
    runs = _runs_41(p41)
    elapsed = time.perf_counter() - t0
    worst = -1
    for sigma, x0, report in runs:
        hit = _hit_iteration(report, X41_RED, 1e-6)
        assert hit is not None, f"sigma={sigma} x0={x0}: never within 1e-6"
        worst = max(worst, hit)
    _verdict(1, "problem 4.1, sigma in {0.01, 2, 200}, 20 starts",
             worst <= 5 and elapsed < 1.0,
             f"worst hit {worst} <= 5, {elapsed:.2f} s")


def test_criterion_02_problem42_r35(p42):
    _, red = p42
    details = []
    ok = True
    for x0, budget, report, elapsed in _runs_42_r35(p42):
        hit = _hit_iteration(report, X42_FULL, 1e-5, lift=red.lift)
        ok = ok and hit is not None and hit <= budget and elapsed < 1.0
        details.append(f"x0={x0.tolist()}: hit {hit} <= {budget}, "
                       f"{elapsed:.2f} s")
    _verdict(2, "Rosen-Suzuki, step-bound inner loop", ok, "; ".join(details))


def test_criterion_03_problem42_t31(p42):
    _, red = p42
    report, elapsed = _run_42_t31(p42)
    hit = _hit_iteration(report, X42_FULL, 1e-5, lift=red.lift)
    _verdict(3, "Rosen-Suzuki, sampled-index inner loop",
             hit is not None and hit <= 80 and elapsed < 2.0,
             f"hit {hit} <= 80, {elapsed:.2f} s")


def test_criterion_04_degenerate_start(p42):
    _, red = p42
    x0 = np.array([-1.0, -1.0, 2.0])
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    fe = field_eval(red, params, x0)
    exact_zero = fe.g[0] == 0.0
    vplus_small = fe.vplus[0] <= 1e-12

    t31 = solve(red, params, SolveConfig(algorithm="t31", r=0.5, max_iter=3),
                x0)
    first_step_ok = len(t31.records) > 1 and t31.records[0].step > 0

    # The step-bound loop rides the facet that the start lies on, whose
    # activation measure vanishes, and converges from it.
    r35 = solve(red, params, SolveConfig(algorithm="r35", max_iter=150), x0)
    r35_error = math.dist(red.lift(r35.final_x), X42_FULL)
    r35_ok = r35.termination == "critical" and r35_error <= 1e-5

    _verdict(4, "active-constraint start behavior",
             exact_zero and vplus_small and first_step_ok and r35_ok,
             f"g_1=0 exact, max(0,v_1)={fe.vplus[0]:.1e}; step-bound loop: "
             f"{r35.termination} in {r35.iterations}, {r35_error:.1e} from x*")


def test_criterion_05_structural_identities(p41, p42):
    rng = np.random.default_rng(0)
    bad = []
    for _, red in (p41, p42):
        params = FieldParams.default(red.n, red.k, sigma=1.0)
        for x in sample_feasible(red, 200, seed=11):
            bad.extend(identity_violations(red, params, x, rng))
    _verdict(5, "field identities at 400 feasible points", not bad,
             f"{len(bad)} violations" + (f"; first: {bad[0]}" if bad else ""))


def test_criterion_06_criticality_agreement(p41, p42):
    counts = {"agree": 0, "gray": 0, "disagree": 0}
    for _, red in (p41, p42):
        params = FieldParams.default(red.n, red.k, sigma=1.0)
        for x in sample_feasible(red, 200, seed=5):
            counts[criticality_agreement(red, params, x)] += 1
    _verdict(6, "field-norm vs KKT criticality", counts["disagree"] == 0,
             f"{counts['agree']} agree, {counts['gray']} gray, "
             f"{counts['disagree']} disagree")


def test_criterion_07_phase_portrait(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k, sigma=2.0)
    grid = phase_grid(red, params, plane=(0, 1),
                      ranges=(0.0, 1.5, 0.0, 1.5), counts=(11, 11),
                      base=np.zeros(red.n), step=0.01, steps=2000)
    assert grid.trajectories, "no feasible grid points"
    mono = sum(check_theta_monotone(traj) for traj in grid.trajectories)
    close = sum(np.linalg.norm(traj.x[-1] - X41_RED) <= 1e-2
                for traj in grid.trajectories)
    total = len(grid.trajectories)
    _verdict(7, "objective-monotone flow portrait",
             mono == total and close == total,
             f"{mono}/{total} monotone, {close}/{total} end within 1e-2 "
             f"of (0,0), {len(grid.skipped)} infeasible grid points skipped")


def _random_expression(rng, names):
    """Random polynomial-style expression string over ``names``."""
    def atom(depth):
        r = rng.random()
        if depth >= 3 or r < 0.35:
            if r < 0.5:
                return str(names[rng.integers(len(names))])
            return f"{rng.uniform(-3, 3):.4f}"
        op = rng.choice(["+", "-", "*", "pow", "div", "neg"])
        if op == "pow":
            return f"({atom(depth + 1)})^{rng.integers(0, 4)}"
        if op == "neg":
            return f"-({atom(depth + 1)})"
        if op == "div":
            # keep denominators bounded away from zero on the test box
            j = names[rng.integers(len(names))]
            return f"({atom(depth + 1)}) / ({j}^2 + {rng.uniform(2, 5):.4f})"
        return f"({atom(depth + 1)}) {op} ({atom(depth + 1)})"
    return atom(0)


def test_criterion_08_gradient_oracle():
    import time
    rng = np.random.default_rng(42)
    names = ("x1", "x2", "x3")
    h = 1e-6
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        e = parse(_random_expression(rng, names), names)
        x = rng.uniform(-2.0, 2.0, size=3)
        g = np.asarray(grad(e, x))
        fd = np.empty(3)
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            from nlpflow.exprlang import evaluate
            fd[i] = (evaluate(e, xp) - evaluate(e, xm)) / (2 * h)
        rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _verdict(8, "dual-number gradients vs central differences",
             worst <= 1e-5 and elapsed < 1.0,
             f"worst relative error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_09_descent_ledger(p41, p42):
    armijo = 0.1
    reports = [rep for _, _, rep in _runs_41(p41)]
    reports += [rep for _, _, rep, _t in _runs_42_r35(p42)]
    reports.append(_run_42_t31(p42)[0])
    worst_slack = np.inf
    for report in reports:
        recs = report.records
        spent = sum(r.step * abs(r.dtheta_F) for r in recs)
        earned = (recs[0].theta - recs[-1].theta) / armijo
        worst_slack = min(worst_slack, earned - spent)
        assert spent <= earned, f"ledger broken: {spent} > {earned}"
    _verdict(9, "sufficient-decrease accounting over all solves", True,
             f"{len(reports)} solves, smallest margin {worst_slack:.3e}")


def test_criterion_10_determinism(p41, p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    cfg = SolveConfig(algorithm="r35", max_iter=150)
    x0 = np.array([-0.9, -1.0, 2.0])
    first = solve_report_csv(red, solve(red, params, cfg, x0))
    second = solve_report_csv(red, solve(red, params, cfg, x0))
    cached = solve_report_csv(red, _runs_42_r35(p42)[0][2])

    _, r41 = p41
    s41 = sample_feasible(r41, 20, seed=7)
    s41b = sample_feasible(r41, 20, seed=7)
    seeds_match = all(np.array_equal(a, b) for a, b in zip(s41, s41b))

    _verdict(10, "bitwise-identical repeated runs",
             first == second == cached and seeds_match,
             f"{len(first.splitlines())} CSV lines compared")
