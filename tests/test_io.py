import math
import pathlib

import numpy as np
import pytest

import checks_reference
from nlpflow import cli, exprlang, io, model
from nlpflow.exprlang import EvalError, evaluate, parse
from nlpflow.field import FieldParams, field_eval
from nlpflow.flow import Trajectory
from nlpflow.io import (ProblemFormatError, SamplingError, kkt_block, load_problem,
                        sample_feasible, solve_report_csv, trajectory_csv,
                        trajectory_csv_rows)
from nlpflow.model import Problem, ReductionError, is_feasible
from nlpflow.solver import IterateRecord, SolveConfig, SolveReport, solve

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def test_load_problem_41(p41):
    full, red = p41
    assert full.names == ("x1", "x2", "x3")
    assert (full.m, full.k) == (1, 4)
    assert red is not None and red.names == ("x1", "x2")


def test_load_problem_42(p42):
    full, red = p42
    assert full.names == ("x1", "x2", "x3", "x4")
    assert (full.m, full.k) == (1, 2)
    assert red is not None and red.n == 3


def _write(tmp_path, text, name="case.nlp"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_minimal_file(tmp_path):
    path = _write(tmp_path, "vars: x y\nobjective: x^2 + y^2\nineq: -x\n")
    p, red = load_problem(path)
    assert p.names == ("x", "y") and p.k == 1 and red is None


def test_comments_and_blank_lines_ignored(tmp_path):
    path = _write(tmp_path,
                  "# a comment\n\nvars: x\nobjective: x^2  # inline\n")
    p, _ = load_problem(path)
    assert evaluate(p.objective, [3.0]) == 9.0


@pytest.mark.parametrize("text, fragment", [
    ("objective: x\n", "missing vars"),
    ("vars: x\n", "missing objective"),
    ("vars: x\nvars: y\nobjective: x\n", "duplicate vars"),
    ("vars: x\nobjective: x\nobjective: x\n", "duplicate objective"),
    ("vars: x\nobjective: x\nbounds: 0 1\n", "unknown key"),
    ("vars: x\nobjective: x\njust text\n", "expected 'key: value'"),
    ("vars: x\nobjective: x +\n", ":2:"),
    ("vars: x y\nobjective: x\neliminate: y\n", "name = expression"),
    ("vars:\nobjective: x\n", ":1: empty vars line"),
])
def test_load_problem_errors(tmp_path, text, fragment):
    with pytest.raises(ProblemFormatError, match=fragment):
        load_problem(_write(tmp_path, text))


def test_an_expression_cut_short_names_its_line_and_offset(tmp_path):
    path = _write(tmp_path, "vars: x\nobjective: x^2\nineq: x +\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(path)
    assert str(exc.value) == f"{path}:3: unexpected end of expression (at offset 3)"


def test_a_form_feed_in_a_comment_keeps_the_line_numbers(tmp_path):
    # ``str.splitlines`` would end a line at each of these characters.
    path = _write(tmp_path, "vars: x\n# page \x0c break \x1c\x1d\x1e\nobjective: x^\n")
    with pytest.raises(ProblemFormatError) as exc:
        load_problem(path)
    assert str(exc.value).startswith(f"{path}:3: exponent must be")


def test_a_repeat_check_reuses_the_load_and_lowers_nothing(tmp_path, count_calls, capsys):
    path = str(_write(tmp_path, (PROBLEMS / "p42.nlp").read_text(), "p42.nlp"))
    argv = ["check", "--problem", path, "--samples", "50", "--seed", "1"]
    assert cli.main(argv) == 0
    first = load_problem(path)
    counts = count_calls(exprlang.parse, exprlang._lower, model.reduce)
    compiled = exprlang._compile.cache_info()
    assert cli.main(argv) == 0
    assert not counts and exprlang._compile.cache_info() == compiled
    assert load_problem(path) is first
    # The second op's output is the first's.
    out = capsys.readouterr().out.splitlines()
    assert out[:len(out) // 2] == out[len(out) // 2:]


def test_an_edited_file_loads_anew(tmp_path):
    path = _write(tmp_path, "vars: x y\nobjective: x^2 + y^2\nineq: -x\n")
    before = load_problem(path)
    path.write_text("vars: x y\nobjective: x^2 + 2*y^2\nineq: -x\n")
    after = load_problem(path)
    assert after[0] is not before[0]
    assert (evaluate(before[0].objective, [1.0, 1.0]), evaluate(after[0].objective, [1.0, 1.0])
            ) == (2.0, 3.0)
    path.write_text("vars: x y\nobjective: x^2 + y^2\nineq: -x\n")
    assert load_problem(path)[0] is before[0]


def test_a_failing_load_raises_afresh_and_is_not_kept(tmp_path):
    path = _write(tmp_path, "vars: x y\nobjective: x^2\neq: x + y - 1\neliminate: y = 2 - x\n")
    io._parse_problem.cache_clear()
    raised = []
    for _ in range(2):
        with pytest.raises(ReductionError) as exc:
            load_problem(path)
        raised.append(exc.value)
    assert raised[0] is not raised[1]
    assert str(raised[0]) == str(raised[1]) == ("elimination violates an equality constraint "
                                                "by 1.000e+00 at a sampled point")
    assert io._parse_problem.cache_info().currsize == 0


def test_sample_feasible_is_seeded_and_feasible(p41):
    _, red = p41
    pts = sample_feasible(red, 50, seed=3)
    assert pts.shape == (50, 2)
    for x in pts:
        assert is_feasible(red, x, tol=1e-12)
    assert np.array_equal(pts, sample_feasible(red, 50, seed=3))


@pytest.mark.parametrize("seed", range(5))
def test_block_draw_is_the_single_draws(seed):
    block = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(300, 3))
    rng = np.random.default_rng(seed)
    assert np.array_equal(block, [rng.uniform(-3.0, 3.0, size=3) for _ in range(300)])


def test_sample_feasible_matches_per_draw_reference(p41, p42):
    for _, red in (p41, p42):
        for seed in range(50):
            want = checks_reference.sample_feasible(red, 20, seed)
            assert np.array_equal(sample_feasible(red, 20, seed), want)


def test_sample_feasible_counts_draws(p42, monkeypatch):
    """SAMPLE_MAX_TRIES bounds the draws, across block edges, as one draw per
    try does: the n-th feasible point on the last allowed draw is found,
    one draw fewer is an error."""
    _, red = p42
    rng = np.random.default_rng(9)
    tries = []  # the draw at which each feasible point comes
    for i in range(1, 3000):
        if is_feasible(red, rng.uniform(-3.0, 3.0, size=3), 1e-12):
            tries.append(i)
    for count in (1, 13, len(tries)):  # inside the first block, and past it
        last = tries[count - 1]
        monkeypatch.setattr(io, "SAMPLE_MAX_TRIES", last)
        assert np.array_equal(sample_feasible(red, count, 9),
                              checks_reference.sample_feasible(red, count, 9, max_tries=last))
        message = (f"could not draw {count} feasible samples in {last - 1} tries "
                   "from the box [-3, 3]^3")
        monkeypatch.setattr(io, "SAMPLE_MAX_TRIES", last - 1)
        with pytest.raises(SamplingError) as exc:
            sample_feasible(red, count, 9)
        assert str(exc.value) == message
        with pytest.raises(RuntimeError) as exc:
            checks_reference.sample_feasible(red, count, 9, max_tries=last - 1)
        assert str(exc.value) == message
    assert tries[12] < 256 < tries[-1]


@pytest.mark.parametrize("seed, consumed", [(0, 629), (1, 519)])
def test_sample_feasible_runs_the_stack_once_per_draw_it_takes(p42, monkeypatch, seed,
                                                               consumed):
    """One column run tests each block of draws, up to the block that
    completes the sample.  Row by row, one kernel run tests each draw, up
    to the draw that completes the sample, not to the end of its block."""
    _, red = p42
    tape = red.constraint_stack.tape
    kernel, runs = tape.value_kernel, []

    def counted(runner):
        def run(*args):
            runs.append(runner)
            return getattr(kernel, runner)(*args)
        return run
    monkeypatch.setitem(tape.__dict__, "value_kernel",
                        type(kernel)(counted("rows"), counted("columns")))
    draws = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(consumed, 3))
    blocks = -(-consumed // io._SAMPLE_BLOCK)
    for columns_from, want in ((exprlang.COLUMNS_FROM, ["columns"] * blocks),
                               (io._SAMPLE_BLOCK + 1, ["rows"] * consumed)):
        monkeypatch.setattr(exprlang, "COLUMNS_FROM", columns_from)
        runs.clear()
        points = sample_feasible(red, 50, seed)
        assert np.array_equal(points[-1], draws[-1])
        assert runs == want


def _raising_at(draw):
    """g = x1 on (x1, x2), as a formula that divides by zero only at the
    point ``draw``."""
    names = ("x1", "x2")
    g = parse(f"x1 + 0*(1/(x1 - {float(draw[0])!r}))", names)
    return Problem(names=names, objective=parse("x1^2 + x2^2", names), inequalities=(g,))


def test_sample_feasible_ignores_an_error_past_its_last_draw():
    """An error at a draw after the last one needed is not raised, and an
    error at a needed draw is the per-draw test's, with its message."""
    draws = np.random.default_rng(5).uniform(-3.0, 3.0, size=(256, 2))
    r = 40
    p = _raising_at(draws[r])
    before = int((draws[:r, 0] <= 1e-12).sum())
    assert before >= 1
    for count in (1, before):
        got = sample_feasible(p, count, seed=5)
        assert np.array_equal(got, checks_reference.sample_feasible(p, count, 5))
        assert np.array_equal(got, draws[:r][draws[:r, 0] <= 1e-12][:count])
    for sampler in (sample_feasible, checks_reference.sample_feasible):
        with pytest.raises(EvalError, match="^division by zero$"):
            sampler(p, before + 1, 5)


def test_sample_feasible_without_constraints_takes_every_draw():
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1^2 + x2^2", names))
    want = np.random.default_rng(3).uniform(-3.0, 3.0, size=(300, 2))
    assert np.array_equal(sample_feasible(p, 300, seed=3), want)
    assert np.array_equal(checks_reference.sample_feasible(p, 300, 3), want)


def test_sample_feasible_needs_a_positive_count(p42, monkeypatch):
    _, red = p42
    monkeypatch.setattr(io, "SAMPLE_MAX_TRIES", 10)
    for count in (0, -1):
        with pytest.raises(ValueError, match="at least one sample"):
            sample_feasible(red, count, seed=0)


def test_sample_feasible_rejects_equalities(p41):
    full, _ = p41
    with pytest.raises(ValueError):
        sample_feasible(full, 5, seed=0)


def test_trajectory_csv_round_trip(p41):
    from nlpflow.flow import euler_flow
    _, red = p41
    params = FieldParams.default(red.n, red.k, sigma=2.0)
    traj = euler_flow(red, params, np.array([0.5, 0.5]), step=0.01, steps=20)
    header, *rows = trajectory_csv(red, [traj], with_id=False).splitlines()
    assert header == "t,x1,x2,theta,normF,max_g,max_abs_h"
    assert rows == list(trajectory_csv_rows(red, traj))
    assert len(rows) == len(traj)
    # 17-significant-digit formatting makes the round trip exact
    for i, row in enumerate(rows):
        vals = [float(tok) for tok in row.split(",")]
        assert vals[1] == traj.x[i][0] and vals[2] == traj.x[i][1]
        assert vals[3] == traj.theta[i]


def test_trajectory_csv_keeps_each_diagnostic():
    p = Problem(names=("x1",), objective=parse("x1", ("x1",)))

    def trajectory(rows, diagnostic=""):
        col = np.arange(rows, dtype=float)
        return Trajectory(t=col, x=col[:, None], theta=col, normF=col, max_g=col,
                          max_abs_h=col, status="aborted" if diagnostic else "completed",
                          diagnostic=diagnostic)

    trajs = [trajectory(2, "drift"), trajectory(1), trajectory(1, "Q is not finite")]
    assert trajectory_csv(p, trajs, with_id=True).splitlines() == [
        "traj_id,t,x1,theta,normF,max_g,max_abs_h",
        "0,0,0,0,0,0,0", "0,1,1,1,1,1,1", "# diagnostic: trajectory 0: drift",
        "1,0,0,0,0,0,0",
        "2,0,0,0,0,0,0", "# diagnostic: trajectory 2: Q is not finite"]
    assert trajectory_csv(p, trajs[2:], with_id=False) == (
        "t,x1,theta,normF,max_g,max_abs_h\n0,0,0,0,0,0\n# diagnostic: Q is not finite\n")


def test_solve_report_csv_round_trip(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    report = solve(red, params, SolveConfig(max_iter=100),
                   np.array([-0.9, -1.0, 2.0]))
    text = solve_report_csv(red, report)
    lines = text.splitlines()
    assert lines[0] == "iter,x1,x2,x3,theta,normF,step,backtracks,proj_used"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == len(report.records)
    # re-scoring the parsed iterates reproduces theta and |F| exactly
    for row, rec in zip(data, report.records):
        cells = row.split(",")
        x = np.array([float(c) for c in cells[1:4]])
        assert np.array_equal(x, rec.x)
        fe = field_eval(red, params, x)
        assert abs(fe.theta - float(cells[4])) <= 1e-12 * (1 + abs(fe.theta))
        assert abs(np.linalg.norm(fe.F) - float(cells[5])) <= 1e-12
    assert any(ln.startswith("# termination: ") for ln in lines)


# Edge values for the row formats: signed zeros, subnormals, infinities and
# the extremes of the finite doubles.
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                1.7976931348623157e308, math.inf, -math.inf, 0.1, -1.0, 1e16, 123456789.0]


def _cells(values):
    return [format(v, ".17g") for v in values]


def test_row_formats_give_the_bytes_of_one_format_per_cell():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, size=(40, 6), dtype=np.uint64)
    values = np.vstack([np.resize(_EDGE_VALUES, (8, 6)), bits.view(np.float64)])
    p = Problem(names=("x1", "x2"), objective=parse("x1", ("x1", "x2")))
    traj = Trajectory(t=values[:, 0], x=values[:, 1:3], theta=values[:, 3],
                      normF=values[:, 4], max_g=values[:, 5], max_abs_h=values[:, 0])
    for traj_id in (None, 7):
        prefix = [] if traj_id is None else ["7"]
        assert list(trajectory_csv_rows(p, traj, traj_id)) == [
            ",".join(prefix + _cells(row[[0, 1, 2, 3, 4, 5, 0]].tolist()))
            for row in values]
    report = SolveReport(records=[IterateRecord(x=row[:2].copy(), theta=row[2],
                                                normF=float(row[3]), dtheta_F=0.0,
                                                step=float(row[4]), backtracks=i,
                                                proj_used=bool(i % 2))
                                  for i, row in enumerate(values)], termination="max_iter")
    lines = solve_report_csv(p, report).splitlines()[1:-1]
    assert lines == [",".join([str(i), *_cells(row[:5].tolist()), str(i), str(i % 2)])
                     for i, row in enumerate(values)]


def test_kkt_block_format(p42):
    from nlpflow.kkt import kkt_residual, multipliers
    full, red = p42
    params = FieldParams.default(full.n, full.k, sigma=0.2)
    x = red.lift(np.array([0.0, 1.0, 2.0]))
    block = kkt_block(kkt_residual(full, x, *multipliers(full, field_eval(full, params, x))))
    lines = block.splitlines()
    assert lines[0].startswith("lambda: ")
    assert float(lines[0].split()[1]) == pytest.approx(2.0, abs=1e-12)
    assert lines[1].startswith("mu: ")
    assert lines[-1] == "is_critical: true"
