import os
import pathlib
import subprocess
import sys

import pytest

import nlpflow
from nlpflow.cli import main

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
], ids=["negative-steps", "empty-grid", "empty-grid-column"])
def test_bad_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


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


def test_check_passes(capsys):
    rc = main(["check", "--problem", P42, "--samples", "20", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 violations" in out


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
