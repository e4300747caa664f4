import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import nlpflow
from nlpflow import cli, io, solver
from nlpflow.cli import main
from nlpflow.solver import SolveConfig, SolveError

ROOT = pathlib.Path(__file__).resolve().parents[1]
P41 = str(ROOT / "problems" / "p41.nlp")
P42 = str(ROOT / "problems" / "p42.nlp")


def test_solve_reaches_critical(capsys):
    rc = main(["solve", "--problem", P42, "--algo", "r35",
               "--x0=-0.9,-1,2,0.82", "--sigma", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# termination: critical" in out
    assert "# is_critical: true" in out
    assert "# x_full: " in out
    assert out.splitlines()[0].startswith("iter,x1,x2,x3,")


def test_solve_accepts_reduced_coordinates(capsys):
    rc = main(["solve", "--problem", P41, "--x0", "0.5,0.5",
               "--sigma", "2"])
    assert rc == 0
    assert "# termination: critical" in capsys.readouterr().out


def test_solve_writes_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["solve", "--problem", P41, "--x0", "0.5,0.5,1.0",
               "--sigma", "2", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("iter,x1,x2,")


def test_solve_infeasible_start_is_error(capsys):
    rc = main(["solve", "--problem", P41, "--x0", "5,5"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ")


def test_solve_bad_dimension_is_error(capsys):
    rc = main(["solve", "--problem", P41, "--x0", "1,2,3,4"])
    assert rc == 1
    assert "coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve", "--sigma", "0.2", "--max-iter", "2"],
                                     ["flow", "--step", "0.01", "--steps", "2"]],
                         ids=["solve", "flow"])
def test_full_x0_off_the_elimination_map_is_an_error(command, capsys):
    # The lift of (-0.9, -1, 2) has x4 = 0.82 (README's start), not 99.
    rc = main([*command, "--problem", P42, "--x0=-0.9,-1,2,99"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: x0 is off the elimination map: x4 = 99, "
                            "but the map gives 0.82000000000000028\n")


def test_missing_file_is_error(capsys):
    rc = main(["solve", "--problem", "nope.nlp", "--x0", "0,0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", P41])  # --x0 missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["flow", "--problem", P41, "--x0", "0.5,0.5", "--step", "0.01",
     "--steps", "-3"],
    ["phase", "--problem", P41, "--plane", "x1,x2", "--range", "0,1,0,1",
     "--grid", "0x0", "--step", "0.01", "--steps", "10"],
    ["phase", "--problem", P41, "--plane", "x1,x2", "--range", "0,1,0,1",
     "--grid", "3x0", "--step", "0.01", "--steps", "-1"],
    *(["phase", "--problem", P41, "--plane", "x1,x2", "--range", "0,1,0,1",
       "--grid", "2x2", "--step", "0.01", "--steps", "3", *bad] for bad in (
        ["--plane", "x1"], ["--plane", "x1,x1"], ["--plane", "x1,1"],
        ["--plane", "x9,x1"], ["--plane", "3,1"], ["--range=0,1,0"],
        ["--range=0,1,a,1"], ["--fix", "x1"], ["--fix", "x1=1,"],
        ["--fix", "x9=1"])),
    *(["flow", "--problem", P41, "--x0", "0.5,0.5", "--step", step, "--steps", "3"]
      for step in ("0", "-0.01", "nan", "inf", "a")),
    # Over a grid with no feasible point the step was never looked at.
    *(["phase", "--problem", P41, "--plane", "x1,x2", f"--range={rng}", "--grid", "2x2",
       "--step", "0", "--steps", "3"] for rng in ("5,6,5,6", "0,1,0,1")),
    *(["check", "--problem", P42, "--samples", count] for count in ("0", "-1", "a")),
    ["check", "--problem", P42, "--seed", "-1"],
    ["kkt", "--problem", P42, "--x", "0,1,2,x"],
    ["solve", "--problem", P41, "--x0", "0.5,"],
    ["flow", "--problem", P41, "--x0", "a,0.5", "--step", "0.01", "--steps", "3"],
    ["phase", "--problem", P41, "--plane", "x1,x2", "--range", "0.2,0.8,0.2,0.8", "--grid",
     "2x2", "--sigma", "2", "--step", "0.01", "--steps", "1", "--per-trajectory"],
    *(["phase", "--problem", P41, "--plane", "x1,x2", "--range", "0,1,0,1", "--grid", grid,
       "--step", "0.01", "--steps", "3"] for grid in ("11", "axb")),
], ids=["negative-steps", "empty-grid", "empty-grid-column", "plane-one",
        "plane-repeated", "plane-repeated-by-number", "plane-unknown",
        "plane-out-of-range", "range-three", "range-not-a-number",
        "fix-no-value", "fix-empty-pair", "fix-unknown", "flow-zero-step",
        "flow-negative-step", "flow-nan-step", "flow-infinite-step", "flow-step-not-a-number",
        "phase-zero-step-infeasible-grid", "phase-zero-step", "check-zero-samples",
        "check-negative-samples", "check-samples-not-a-number", "check-negative-seed",
        "kkt-x-not-a-number", "solve-x0-empty-coordinate", "flow-x0-not-a-number",
        "phase-per-trajectory-without-out", "grid-one-count", "grid-not-counts"])
def test_bad_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_main_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["check", "--problem", P42, "--samples", "2"]) == 0
    assert cli.build_parser.cache_info()[:2] == (1, 1)  # (hits, misses)
    capsys.readouterr()
    # A usage error after a good call still shows its own subcommand's
    # usage, whether argparse or the command finds it.
    for argv, usage in ((["solve", "--problem", P41], "usage: nlpflow solve "),
                        (["phase", "--problem", P41, "--plane", "x9,x1", "--range", "0,1,0,1",
                          "--grid", "2x2", "--step", "0.01", "--steps", "3"],
                         "usage: nlpflow phase ")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(usage)


def test_solve_options_fill_a_solve_config(monkeypatch):
    seen = []

    def record(p, params, cfg, x0):
        seen.append(cfg)
        raise SolveError("recorded")
    monkeypatch.setattr(solver, "solve", record)
    assert main(["solve", "--problem", P41, "--x0", "0.5,0.5"]) == 1
    assert main(["solve", "--problem", P41, "--x0", "0.5,0.5", "--algo", "t31", "--r", "0.5",
                 "--armijo", "0.2", "--eps", "1e-3", "--max-iter", "7", "--tol", "1e-5"]) == 1
    assert seen == [SolveConfig(), SolveConfig("t31", 0.5, 1e-3, 0.2, 7, 1e-5)]


@pytest.mark.parametrize("option, message", [
    (["--r", "inf"], "finite r"), (["--r", "nan"], "finite r"),
    (["--eps", "nan"], "finite epsilon"), (["--tol", "nan"], "stop_tol"),
    (["--sigma", "nan"], "sigma must be positive and finite"),
    (["--sigma", "inf"], "sigma must be positive and finite"),
])
def test_non_finite_solve_option_is_a_config_error(option, message, capsys):
    # The default r35: t31 with an unchecked r = inf would never return.
    assert main(["solve", "--problem", P41, "--x0", "0.5,0.5", *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_kkt_at_minimizer(capsys):
    rc = main(["kkt", "--problem", P42, "--x", "0,1,2,-1",
               "--sigma", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = dict(ln.split(": ", 1) for ln in out.strip().splitlines())
    assert float(lines["lambda"]) == pytest.approx(2.0, abs=1e-12)
    assert [float(v) for v in lines["mu"].split()] == \
        pytest.approx([1.0, 0.0], abs=1e-12)
    assert lines["is_critical"] == "true"
    assert float(lines["normF"]) <= 1e-12


def test_flow_outputs_trajectory(capsys):
    rc = main(["flow", "--problem", P41, "--x0", "0.5,0.5",
               "--sigma", "2", "--step", "0.01", "--steps", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2,theta,normF,max_g,max_abs_h"
    assert len(lines) == 22


def test_phase_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["phase", "--problem", P41, "--plane", "x1,x2",
               "--range", "0,1,0,1", "--grid", "3x3", "--sigma", "2",
               "--step", "0.01", "--steps", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("traj_id,t,x1,x2,")
    assert len({ln.split(",")[0] for ln in lines[1:]}) >= 2


def test_phase_per_trajectory_files(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["phase", "--problem", P41, "--plane", "1,2",
               "--range", "0.2,0.8,0.2,0.8", "--grid", "2x2", "--sigma", "2",
               "--step", "0.01", "--steps", "5", "--per-trajectory",
               "--out", str(out)])
    assert rc == 0
    files = sorted(tmp_path.glob("traj-*.csv"))
    assert len(files) == 4
    assert files[0].read_text().startswith("t,x1,x2,")


@pytest.mark.parametrize("out, names", [("run.v2/traj", ["traj-0", "traj-1"]),
                                         ("d/.hidden", [".hidden-0", ".hidden-1"]),
                                         ("d/x.tar.gz", ["x.tar-0.gz", "x.tar-1.gz"])])
def test_phase_per_trajectory_names_split_only_the_file_extension(out, names, tmp_path):
    # A dot in a directory name, or a leading one, is not an extension.
    (tmp_path / out).parent.mkdir()
    rc = main(["phase", "--problem", P41, "--plane", "x1,x2", "--range", "0.2,0.8,0.2,0.2",
               "--grid", "2x1", "--sigma", "2", "--step", "0.01", "--steps", "1",
               "--per-trajectory", "--out", str(tmp_path / out)])
    assert rc == 0
    assert sorted(f.name for f in (tmp_path / out).parent.iterdir()) == names


def test_phase_fix_sets_the_coordinates_off_the_plane(capsys):
    rc = main(["phase", "--problem", P42, "--plane", "x1,x2", "--range=-0.5,0.5,-0.5,0.5",
               "--grid", "2x2", "--fix", "x3=1.5", "--sigma", "0.2", "--step", "0.01",
               "--steps", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0 and lines[0].startswith("traj_id,t,x1,x2,x3,")
    starts = [line.split(",") for line in lines[1:] if line.split(",")[1] == "0"]
    assert [row[2:5] for row in starts] == [["0.5", "-0.5", "1.5"], ["0.5", "0.5", "1.5"]]


def test_phase_over_an_infeasible_grid_is_an_error(capsys):
    rc = main(["phase", "--problem", P41, "--plane", "x1,x2", "--range=-2,-1,-2,-1",
               "--grid", "2x2", "--step", "0.01", "--steps", "3"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err == "error: no feasible grid point: 4 infeasible points skipped\n"


MOTIVATING_PHASE = ["phase", "--problem", P41, "--plane", "x1,x2", "--range=0,1.9,0.05,1",
                    "--grid", "2x2", "--sigma", "2", "--step", "0.5", "--steps", "50"]


def test_phase_prints_each_aborted_trajectory_diagnostic(capsys):
    # A step of 0.5 drifts every trajectory out of the feasible set at once:
    # each stops after its first row, and says why.
    rc = main(MOTIVATING_PHASE)
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0 and lines[0].startswith("traj_id,t,x1,x2,")
    assert [ln.split(",")[0] for ln in lines[1::2]] == ["0", "1", "2"]
    for tid, line in enumerate(lines[2::2]):
        assert line.startswith(f"# diagnostic: trajectory {tid}: field evaluation failed "
                               "at step 1: point infeasible: max constraint violation")
    assert len(lines) == 7


def test_phase_per_trajectory_file_keeps_its_diagnostic(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(MOTIVATING_PHASE + ["--per-trajectory", "--out", str(out)])
    assert rc == 0
    for tid in range(3):
        lines = (tmp_path / f"traj-{tid}.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[1].startswith("0,")
        assert lines[2].startswith("# diagnostic: field evaluation failed at step 1: ")


@pytest.mark.parametrize("command", [["solve", "--x0", "0.5,0.5"], ["check", "--samples", "3"]],
                         ids=["solve", "check"])
def test_equalities_without_elimination_are_an_error(command, tmp_path, capsys):
    path = tmp_path / "eq.nlp"
    path.write_text("vars: x y\nobjective: x^2 + y^2\neq: x + y - 1\nineq: -x\n")
    assert main([*command, "--problem", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: problem has equality constraints but no eliminate lines; "
                            "add an elimination map\n")


def test_check_passes(capsys):
    rc = main(["check", "--problem", P42, "--samples", "20", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 violations" in out


def test_check_reports_violations_in_both_spaces(monkeypatch, capsys):
    """Each violation prints one line, at the reduced point and then at the
    lifted point, each as ``--x`` takes it, and any violation makes the exit
    code 1."""
    def violated(params, block, draws):
        return [[f"forced in {block.F.shape[1]} coordinates"] for _ in block.F]
    monkeypatch.setattr(nlpflow.checks, "identity_block", violated)
    rc = main(["check", "--problem", P42, "--samples", "3", "--seed", "1"])
    out = capsys.readouterr().out
    _, red = io.load_problem(P42)
    want = []
    for x in io.sample_feasible(red, 3, 1):
        want += [f"violation at {','.join(map(io._fmt, x))}: forced in 3 coordinates",
                 f"violation at lifted {','.join(map(io._fmt, red.lift(x)))}: "
                 "forced in 4 coordinates"]
    assert rc == 1
    assert out.splitlines() == want + ["checked 3 feasible points: 6 violations, "
                                       "0 gray-band points"]


def test_exhausted_sampler_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(io, "SAMPLE_MAX_TRIES", 10)
    rc = main(["check", "--problem", P42, "--samples", "50"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: could not draw 50 feasible samples in "
                                       "10 tries from the box [-3, 3]^3\n")


def _child_pythonpath():
    # The directory holding the nlpflow this session imported, then the
    # parent's PYTHONPATH made absolute, so the child finds the same package
    # from any working directory, installed or not.
    paths = [str(pathlib.Path(nlpflow.__file__).resolve().parents[1])]
    inherited = os.environ.get("PYTHONPATH", "")
    paths += [os.path.abspath(p) for p in inherited.split(os.pathsep) if p]
    return os.pathsep.join(paths)


def test_console_script_and_log_env(tmp_path):
    """Run nlpflow.cli:main, which the console script wraps, in a fresh interpreter.

    It must stay a subprocess: logging.basicConfig does nothing once pytest
    has put handlers on the root logger, so only a new process shows that
    NLPFLOW_LOG controls logging.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "nlpflow.cli", "solve", "--problem", P41,
         "--x0", "0.5,0.5", "--sigma", "2"],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "NLPFLOW_LOG": "info",
             "PYTHONPATH": _child_pythonpath()},
    )
    assert proc.returncode == 0, proc.stderr
    assert "# termination: critical" in proc.stdout
    assert "loaded" in proc.stderr and "terminated: critical" in proc.stderr


def test_trace_log_names_each_compiled_field_kernel(tmp_path):
    # check assembles the reduced and the full-space field; each kernel is
    # compiled once, and logged once, below info.
    proc = subprocess.run(
        [sys.executable, "-m", "nlpflow.cli", "check", "--problem", P42, "--samples", "30"],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "NLPFLOW_LOG": "trace",
             "PYTHONPATH": _child_pythonpath()},
    )
    assert proc.returncode == 0, proc.stderr
    debug = [line for line in proc.stderr.splitlines() if line.startswith("DEBUG")]
    kernels = [re.fullmatch(r"DEBUG nlpflow\.field: field kernel for \(n, m, k\) = "
                            r"\((\d+), (\d+), (\d+)\): \d+ operations, compiled in [\d.]+ ms; "
                            r"blocks of \d+ or more rows run on NumPy columns, others by row",
                            line) for line in debug]
    assert [match.groups() for match in kernels] == [("3", "0", "2"), ("4", "1", "2")]


def test_commands_do_not_import_scipy_linalg(tmp_path):
    """Run four commands in one fresh, isolated interpreter (``python -I``).

    The field's linear algebra is the package's own generated kernel, so
    no command imports any part of SciPy, ``scipy.linalg`` included: SciPy
    is a test dependency only.
    """
    src = str(pathlib.Path(nlpflow.__file__).resolve().parents[1])
    commands = [
        ["solve", "--problem", P42, "--x0=-0.9,-1,2,0.82", "--sigma", "0.2"],
        ["phase", "--problem", P41, "--plane", "x1,x2", "--range", "0,1.5,0,1.5",
         "--grid", "2x2", "--sigma", "2", "--step", "0.01", "--steps", "20"],
        ["check", "--problem", P42, "--samples", "5"],
        ["kkt", "--problem", P42, "--x", "0,1,2,-1", "--sigma", "0.2"],
    ]
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import nlpflow\n"
        "from nlpflow.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stdout


@pytest.mark.parametrize("objective", [
    "x1^1e400",
    "(" * 400 + "x1" + ")" * 400,
], ids=["infinite-exponent", "deep-nesting"])
def test_unparsable_expression_is_an_error_not_a_traceback(objective, tmp_path):
    problem = tmp_path / "bad.nlp"
    problem.write_text(f"vars: x1\nobjective: {objective}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nlpflow.cli", "solve", "--problem",
         str(problem), "--x0", "1"],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": _child_pythonpath()},
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_long_objective_with_elimination_solves(tmp_path):
    problem = tmp_path / "long.nlp"
    problem.write_text("vars: x1 x2 x3\n"
                       f"objective: {' + '.join(['x1*x2'] * 3000)} + x3^2\n"
                       "eq: x1 + x2 + x3 - 1\n"
                       "ineq: -x1\nineq: -x2\nineq: -x3\n"
                       "eliminate: x3 = 1 - x1 - x2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nlpflow.cli", "solve", "--problem",
         str(problem), "--x0", "0.2,0.3"],
        capture_output=True, text=True, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": _child_pythonpath()},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "# termination: critical" in proc.stdout


@pytest.fixture
def bowl(tmp_path):
    """An unconstrained problem file."""
    path = tmp_path / "bowl.nlp"
    path.write_text("vars: x1 x2\nobjective: x1^2 + x2^2\n")
    return str(path)


def _run_without_warnings(argv):
    # numpy reports an overflow as a RuntimeWarning; none may escape.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@pytest.mark.parametrize("algo", ["r35", "t31"])
@pytest.mark.parametrize("with_inequalities", [True, False],
                         ids=["inequalities", "unconstrained"])
def test_non_finite_field_is_field_failure(algo, with_inequalities, bowl, capsys):
    problem, x0 = (P42, "-0.9,-1,2") if with_inequalities else (bowl, "3,4")
    rc = _run_without_warnings(["solve", "--problem", problem, "--algo", algo,
                                "--sigma", "1e308", f"--x0={x0}"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "# termination: field_failure" in out
    assert "# diagnostic: the field F is not finite" in out


@pytest.mark.parametrize("with_inequalities", [True, False],
                         ids=["inequalities", "unconstrained"])
def test_non_finite_field_aborts_flow(with_inequalities, bowl, capsys):
    problem, x0 = (P42, "-0.9,-1,2") if with_inequalities else (bowl, "3,4")
    rc = _run_without_warnings(["flow", "--problem", problem, "--sigma", "1e308",
                                f"--x0={x0}", "--step", "0.01", "--steps", "5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert ("# diagnostic: field evaluation failed at step 0: "
            "the field F is not finite") in out


def test_overflowing_constraint_is_an_error(tmp_path, capsys):
    path = tmp_path / "tall.nlp"
    path.write_text("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x1^400 - 1\n")
    rc = _run_without_warnings(["solve", "--problem", str(path), "--x0=10,0"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: overflow")


def test_stalled_solve_is_an_error(tmp_path, capsys):
    path = tmp_path / "slope.nlp"
    path.write_text("vars: x1 x2\nobjective: x1 + x2\nineq: -x1 - 5\n")
    rc = _run_without_warnings(["solve", "--problem", str(path), "--sigma", "1e308",
                                "--x0=0,0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "# termination: stalled" in out
    assert "# diagnostic: accepted step 5.551e-17 left x unchanged at |F| = 1.000e+308" in out


def test_t31_ray_sampling_overflow_is_field_failure(capsys):
    rc = _run_without_warnings(["solve", "--problem", P42, "--algo", "t31", "--r", "1e200",
                                "--eps", "1e150", "--x0=-0.9,-1,2", "--max-iter", "3"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0].startswith("iter,x1,x2,x3,") and lines[1].startswith("0,")
    assert lines[2:4] == ["# termination: field_failure",
                          "# diagnostic: Euler-ray sampling failed at epsilon = 1e+150: "
                          "overflow: Numerical result out of range"]
    assert "# is_critical: false" in lines


@pytest.fixture
def power(tmp_path):
    """-x^300 below a bound: past x = 10.52 its gradient overflows, and
    past x = 10.64 its value too."""
    def write(bound):
        path = tmp_path / "power.nlp"
        path.write_text(f"vars: x\nobjective: -x^300\nineq: x - {bound}\n")
        return str(path)
    return write


@pytest.mark.parametrize("algo", ["r35", "t31"])
def test_gradient_overflow_at_x0_is_field_failure(algo, power, capsys):
    rc = _run_without_warnings(["solve", "--problem", power(10.65), "--algo", algo,
                                "--x0=10.6"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (1, "")
    assert captured.out.splitlines() == ["iter,x,theta,normF,step,backtracks,proj_used",
                                         "# termination: field_failure",
                                         "# diagnostic: non-finite value in derivative sweep"]


@pytest.fixture
def power_plane(tmp_path):
    """``power``'s problem with a second coordinate y: past x = 10.52 the
    gradient overflows."""
    path = tmp_path / "power_plane.nlp"
    path.write_text("vars: x y\nobjective: -x^300 + y^2\nineq: x - 10.65\n")
    return str(path)


def test_gradient_overflow_ends_only_its_own_trajectory(power_plane, capsys):
    # The starts at x = 10 drift out of the feasible set at step 1; at
    # x = 10.6 the gradient overflows at once.
    rc = _run_without_warnings(["phase", "--problem", power_plane, "--plane", "x,y",
                                "--range=10,10.6,0,1", "--grid", "2x2", "--step", "0.01",
                                "--steps", "3"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (0, "")
    lines = captured.out.splitlines()
    assert lines[0] == "traj_id,t,x,y,theta,normF,max_g,max_abs_h" and len(lines) == 7
    for tid, y in enumerate("01"):
        assert lines[1 + 2 * tid].startswith(f"{tid},0,10,{y},")
        assert lines[2 + 2 * tid].startswith(f"# diagnostic: trajectory {tid}: field evaluation "
                                             "failed at step 1: point infeasible: ")
    assert lines[5:] == [f"# diagnostic: trajectory {tid}: field evaluation failed at step 0: "
                         "non-finite value in derivative sweep" for tid in (2, 3)]


def test_gradient_overflow_at_x0_aborts_flow(power_plane, capsys):
    rc = _run_without_warnings(["flow", "--problem", power_plane, "--x0=10.6,0.5",
                                "--step", "0.01", "--steps", "3"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (1, "")
    assert captured.out.splitlines() == [
        "t,x,y,theta,normF,max_g,max_abs_h",
        "# diagnostic: field evaluation failed at step 0: non-finite value in derivative sweep"]


@pytest.mark.parametrize("algo", ["r35", "t31"])
def test_slope_that_overflows_gives_no_warning(algo, power, capsys):
    # grad(theta) . F overflows at x0, where the field is finite.  The Armijo
    # test's slope is then -inf, so no candidate passes it: r35 runs out of
    # halvings and t31 reaches its backtracking floor.
    rc = _run_without_warnings(["solve", "--problem", power(11), "--algo", algo,
                                "--x0=10.5"])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (1, "")
    lines = captured.out.splitlines()
    ending = {"r35": "inner_cap", "t31": "field_failure"}[algo]
    assert lines[1].startswith("0,10.5,") and lines[2] == f"# termination: {ending}"


@pytest.fixture
def steep(tmp_path):
    """An inequality so steep that Q = B H B' - diag(g) overflows."""
    path = tmp_path / "steep.nlp"
    path.write_text("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: 1e300*x1\n")
    return str(path)


@pytest.mark.parametrize("algo", ["r35", "t31"])
def test_non_finite_q_is_field_failure(algo, steep, capsys):
    rc = _run_without_warnings(["solve", "--problem", steep, "--algo", algo,
                                "--x0=-1e-10,1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "# termination: field_failure" in out
    assert "# diagnostic: Q is not finite" in out


def test_non_finite_q_aborts_flow(steep, capsys):
    rc = _run_without_warnings(["flow", "--problem", steep, "--x0=-1e-10,1",
                                "--step", "0.01", "--steps", "5"])
    out = capsys.readouterr().out
    assert rc == 1
    assert ("# diagnostic: field evaluation failed at step 0: "
            "Q is not finite") in out


def test_flow_norm_of_a_field_whose_square_overflows(tmp_path, capsys):
    """|F| of a finite F stays finite past F.F = inf, without a warning."""
    path = tmp_path / "ridge.nlp"
    path.write_text("vars: x1 x2\nobjective: x1^2 + x2^2\nineq: x1 - 5\n")
    rc = main(["flow", "--problem", str(path), "--sigma", "1e308", "--x0=1e-310,0",
               "--step", "0.1", "--steps", "3"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1 and len(out) == 4
    assert out[2].split(",")[4] == "1.9291909207300239e+305"


@pytest.mark.parametrize("eliminated", [True, False], ids=["eliminated", "inequality-only"])
def test_overflowing_inequality_does_not_block_loading(eliminated, tmp_path, capsys):
    # x1^500 overflows in much of [-5, 5]^2, where the elimination map is
    # checked; the solve from (0.1, 0.1) never goes there.
    path = tmp_path / "steep.nlp"
    path.write_text("vars: x1 x2 x3\nobjective: x1^2 + x2^2\nineq: x1^500 - 1\n"
                    + ("eq: x1 + x2 + x3 - 2\neliminate: x3 = 2 - x1 - x2\n" if eliminated
                       else ""))
    x0 = "0.1,0.1" if eliminated else "0.1,0.1,0.1"
    rc = main(["solve", "--problem", str(path), f"--x0={x0}", "--max-iter", "3"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert "# termination: " in out
