"""The stacked identity suite and the block ``check`` command, against the
one-point reference in ``checks_reference``."""

import pathlib

import numpy as np
import pytest

import checks_reference as ref
from nlpflow import checks, cli, io
from nlpflow.field import FieldError, FieldParams, dissipation, field_eval
from nlpflow.io import load_problem, sample_feasible
from nlpflow.model import FIELD_FEAS_TOL, is_feasible

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"

# Reduced to (x1, x2), where v = 0 everywhere, so F is sigma times a
# bounded vector and a tiny sigma makes |F| disagree with the KKT
# residual.  The two equal inequalities make Q singular where x2 = 2, and
# x1^3 overflows in the elimination map from x1 = 6e102, while the reduced
# objective is still finite there.
CUBIC = """
vars: x1 x2 x3
objective: x1^2 + x1
eq: x3 - x1^3
ineq: x2 - 2
ineq: x2 - 2
eliminate: x3 = x1^3
"""


def _run(argv, monkeypatch, capsys, command=None):
    """(exit code, stdout, stderr) of ``nlpflow`` with ``argv``, with
    ``command`` in place of ``cmd_check`` if given."""
    with monkeypatch.context() as patch:
        if command is not None:
            patch.setattr(cli, "cmd_check", command)
        rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _same_as_reference(argv, monkeypatch, capsys):
    got = _run(argv, monkeypatch, capsys)
    assert got == _run(argv, monkeypatch, capsys, ref.cmd_check)
    return got


@pytest.mark.parametrize("sigma", ["0.2", "1", "50"])
@pytest.mark.parametrize("name", ["p41", "p42"])
def test_check_matches_reference(name, sigma, monkeypatch, capsys):
    for seed in range(10):
        samples = "200" if seed == 0 else "20"
        argv = ["check", "--problem", str(PROBLEMS / f"{name}.nlp"), "--sigma", sigma,
                "--samples", samples, "--seed", str(seed)]
        rc, out, err = _same_as_reference(argv, monkeypatch, capsys)
        assert (rc, err) == (0, "")
        assert out == f"checked {samples} feasible points: 0 violations, 0 gray-band points\n"


@pytest.fixture
def cubic(tmp_path):
    path = tmp_path / "cubic.nlp"
    path.write_text(CUBIC)
    return str(path)


@pytest.mark.parametrize("inject, error", [
    ({}, ""),
    ({5: (0.5, 2.0)}, "error: Q is not positive definite (smallest pivot 0.000e+00): "
                      "LICQ violated or point infeasible\n"),
    ({5: (1e103, 0.5)}, "error: overflow: Numerical result out of range\n"),
    ({6: (1e103, 0.5), 4: (0.5, 2.0)}, "error: Q is not positive definite"),
    ({i: (0.5, 2.0) for i in range(10)}, "error: Q is not positive definite"),
], ids=["clean", "singular-q", "phi-overflow", "first-error-wins", "every-point-fails"])
@pytest.mark.parametrize("sigma", ["1e-12", "1e-8", "1"])
def test_check_prints_the_same_lines_before_the_same_error(cubic, sigma, inject, error,
                                                           monkeypatch, capsys):
    def draws(p, n_samples, seed):
        points = sample_feasible(p, n_samples, seed)
        for i, x in inject.items():
            points[i] = x
        return points

    monkeypatch.setattr(io, "sample_feasible", draws)
    argv = ["check", "--problem", cubic, "--sigma", sigma, "--samples", "10", "--seed", "3"]
    rc, out, err = _same_as_reference(argv, monkeypatch, capsys)
    assert err.startswith(error)
    if error or sigma == "1e-12":
        assert rc == 1
    lines = out.splitlines()
    if error:
        assert not any(line.startswith("checked") for line in lines)
    if sigma == "1e-12":
        # Every point before the first failing one disagrees: the lines
        # come out before the error.
        points = draws(load_problem(cubic)[1], 10, 3)
        first = min(inject, default=len(points))
        assert lines[:first] == [f"criticality disagreement at {','.join(map(io._fmt, x))}"
                                 for x in points[:first]]
        assert len(lines) == first + (not error)
    if sigma == "1" and not error:
        assert rc == 0


def test_quadratic_form_draws_follow_point_order(p42, monkeypatch, capsys):
    """Per point, the reduced space's five vectors, then the full space's."""
    seen = []

    def identity_block(params, block, draws):
        seen.append(draws.copy())
        return real(params, block, draws)

    real = checks.identity_block
    monkeypatch.setattr(checks, "identity_block", identity_block)
    assert cli.main(["check", "--problem", str(PROBLEMS / "p42.nlp"), "--samples", "7",
                     "--seed", "4"]) == 0
    capsys.readouterr()
    full, red = p42
    rng = np.random.default_rng(5)
    want_red, want_full = [], []
    for _ in range(7):
        want_red.append(rng.standard_normal((checks.FORM_DRAWS, red.n)))
        want_full.append(rng.standard_normal((checks.FORM_DRAWS, full.n)))
    assert len(seen) == 2
    assert np.array_equal(seen[0], want_red) and np.array_equal(seen[1], want_full)


def _gains(n, k):
    rng = np.random.default_rng(n + 10 * k)
    R = rng.standard_normal((n, n))
    S = rng.standard_normal((k, k))
    return FieldParams(R @ R.T + np.eye(n), S @ S.T, rng.uniform(0.5, 2, k),
                       rng.uniform(0.5, 2, k), rng.uniform(0, 1, k), rng.integers(1, 4, k))


@pytest.mark.parametrize("space", ["reduced", "full"])
@pytest.mark.parametrize("name", ["p41", "p42"])
def test_one_point_checks_match_reference(name, space, p41, p42):
    full, red = {"p41": p41, "p42": p42}[name]
    points = sample_feasible(red, 50, seed=8)
    p = red
    if space == "full":
        p, points = full, [red.lift(x) for x in points]
    for params in (FieldParams.default(p.n, p.k, sigma=0.7), _gains(p.n, p.k)):
        rng, rng_ref = np.random.default_rng(1), np.random.default_rng(1)
        for x in points:
            assert (checks.identity_violations(p, params, x, rng)
                    == ref.identity_violations(p, params, x, rng_ref))
            assert checks.criticality_agreement(p, params, x) == ref.criticality_agreement(
                p, params, x)
            fe = field_eval(p, params, x)
            assert (np.float64(dissipation(params, fe)).tobytes()
                    == np.float64(ref.dissipation(params, fe)).tobytes())
        # A point whose field fails raises before it takes any draw.
        bad = next(x for x in np.random.default_rng(2).uniform(-9, 9, (100, p.n))
                   if not is_feasible(p, x, FIELD_FEAS_TOL))
        with pytest.raises(FieldError) as got:
            checks.identity_violations(p, params, bad, rng)
        with pytest.raises(FieldError) as want:
            ref.identity_violations(p, params, bad, rng_ref)
        assert str(got.value) == str(want.value)
        assert rng.random() == rng_ref.random()


def test_criticality_block_runs_no_kernel(p42, count_calls):
    # The block holds every input of the KKT residuals (grad(theta), B and
    # g), so the check runs no gradient and no other kernel.
    from nlpflow import exprlang
    from nlpflow.field import field_block
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    points = sample_feasible(red, 50, seed=3)
    block, errors = field_block(red, params, points)
    assert errors == [None] * 50
    want = [ref.criticality_agreement(red, params, x) for x in points]
    counts = count_calls(exprlang.grad, exprlang._run)
    assert checks.criticality_block(red, block) == want
    assert counts == {}
