import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpflow import field, flow, solver
from nlpflow.exprlang import evaluate, grad, parse
from nlpflow.field import (ConstraintQualificationError, FieldError,
                           FieldParams, InfeasiblePointError, dissipation,
                           field_eval, projector_h)
from nlpflow.io import sample_feasible
from nlpflow.model import Problem


def _halfline():
    """min x s.t. -x <= 0: the simplest problem with one active facet."""
    return Problem(names=("x",), objective=parse("x", ("x",)),
                   inequalities=(parse("-x", ("x",)),))


# --- parameters -------------------------------------------------------------

def test_default_params():
    params = FieldParams.default(3, 2, sigma=0.5)
    assert np.array_equal(params.R1, 0.5 * np.eye(3))
    assert np.array_equal(params.R2, np.zeros((2, 2)))
    assert np.array_equal(params.a, [1.0, 1.0])
    assert np.array_equal(params.b, [1.0, 1.0])
    assert np.array_equal(params.c, [0.0, 0.0])
    assert np.array_equal(params.p, [1, 1])


def test_params_arrays_are_frozen():
    params = FieldParams.default(2, 1)
    with pytest.raises(ValueError):
        params.a[0] = 7.0


@pytest.mark.parametrize("mutate, message", [
    (dict(R1=np.diag([1.0, -1.0])), "positive definite"),
    (dict(R1=np.array([[1.0, 2.0], [0.0, 1.0]])), "symmetric"),
    (dict(R2=-np.eye(1)), "semidefinite"),
    (dict(a=[-1.0]), "non-negative"),
    (dict(b=[0.0], c=[0.0]), "positive for every"),
    (dict(p=[0]), ">= 1"),
    (dict(a=[0.0]), "either R2"),
    (dict(R1=np.diag([1.0, np.inf])), "gains must be finite"),
    (dict(R1=np.diag([np.nan, 1.0])), "gains must be finite"),
    (dict(R2=np.full((1, 1), np.inf)), "gains must be finite"),
    (dict(a=[np.nan]), "gains must be finite"),
    (dict(b=[np.inf]), "gains must be finite"),
    (dict(c=[np.nan]), "gains must be finite"),
    (dict(R1=np.ones((2, 3))), "R1 must be square"),
    (dict(R1=[1.0, 2.0]), "R1 must be square"),
    (dict(R1=2.0), "R1 must be square"),
    (dict(a=1.0), "inconsistent parameter dimensions"),
    (dict(R2=np.zeros((1, 2))), "inconsistent parameter dimensions"),
])
def test_params_validation(mutate, message):
    base = dict(R1=np.eye(2), R2=np.zeros((1, 1)),
                a=[1.0], b=[1.0], c=[0.0], p=[1])
    base.update(mutate)
    with pytest.raises(ValueError, match=message):
        FieldParams(**base)


def test_default_rejects_nonpositive_sigma():
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        FieldParams.default(2, 1, sigma=0.0)


@pytest.mark.parametrize("sigma", [-0.0, -5e-324, -1.0])
def test_default_rejects_negative_sigma(sigma):
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        FieldParams.default(2, 1, sigma=sigma)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_default_rejects_non_finite_sigma(sigma):
    # Checked before sigma * I is formed: inf * 0 is NaN, with a RuntimeWarning.
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        FieldParams.default(2, 1, sigma=sigma)


def test_default_is_built_once_per_n_k_and_sigma(monkeypatch):
    # A repeat call returns the frozen instance and validates nothing; a
    # bad sigma raises again on every call.
    built, validate = [], FieldParams._validate
    monkeypatch.setattr(FieldParams, "_validate", lambda self: (built.append(self), validate(self)))
    first = FieldParams.default(4, 3, sigma=0.75)
    count = len(built)
    assert FieldParams.default(4, 3, sigma=0.75) is first
    assert len(built) == count
    assert FieldParams.default(4, 3, sigma=1.5) is not first
    assert FieldParams.default(4, 2, sigma=0.75) is not first
    for _ in range(2):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            FieldParams.default(4, 3, sigma=-0.75)


def _symmetry_decisions(S):
    """Whether FieldParams takes S as R1 and as R2, and whether
    ``np.allclose`` takes it as symmetric; S is positive definite."""
    k = len(S)

    def accepted(**gains):
        try:
            FieldParams(**{"R1": np.eye(k), "R2": np.zeros((k, k)), "a": np.ones(k),
                           "b": np.ones(k), "c": np.zeros(k), "p": np.ones(k, dtype=int),
                           **gains})
        except ValueError as exc:
            assert "must be symmetric" in str(exc)
            return False
        return True

    return accepted(R1=S), accepted(R2=S), bool(np.allclose(S, S.T))


def _last_close(b, away):
    """The x furthest from b towards ``away`` (an infinity of b's sign)
    with |x - b| <= 1e-8 + 1e-5 |b| in floating point: np.isclose(x, b)
    holds there and fails one ulp further."""
    def close(x):
        return abs(x - b) <= 1e-8 + 1e-5 * abs(b)

    x = b + math.copysign(1e-8 + 1e-5 * abs(b), away)
    while not close(x):
        x = np.nextafter(x, -away)
    while close(np.nextafter(x, away)):
        x = np.nextafter(x, away)
    return x


@pytest.mark.parametrize("b", [0.0, 1e-9, 0.3, 1.0, -1.0, 7.5, 1e6, -3e8])
def test_symmetry_boundary_is_np_allclose(b):
    away = math.copysign(math.inf, b)
    x = _last_close(b, away)
    for off, symmetric in ((x, True), (np.nextafter(x, away), False)):
        # S[0, 1] = off is compared with S[1, 0] = b and then b with off;
        # |off| > |b|, so the first comparison decides.
        S = np.array([[4e8 + 1.0, off], [b, 4e8 + 1.0]])
        assert _symmetry_decisions(S) == (symmetric,) * 3, (b, off)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-9, 1e-8, 2e-8, 1e-6, 1e-5, 1e-3]))
def test_symmetry_decision_is_np_allclose(k, scale, seed, noise):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, (k, k)) * scale
    S = M @ M.T + (k * scale * scale + 1.0) * np.eye(k)
    S = S + noise * rng.uniform(-1, 1, (k, k)) * np.abs(S).max()
    S[np.diag_indices(k)] = np.abs(np.diag(S)) + k * np.abs(S).max()
    decisions = _symmetry_decisions(S)
    assert decisions == (decisions[2],) * 3


# --- gains of another problem -----------------------------------------------

@pytest.mark.parametrize("n, k", [(2, 2), (3, 1), (4, 3)])
def test_gains_of_another_problem_are_rejected(n, k, p42, monkeypatch):
    _, red = p42
    params = FieldParams(0.2 * np.eye(n), np.zeros((k, k)), np.ones(k), np.ones(k),
                         np.zeros(k), np.ones(k, dtype=int))
    ran = []
    monkeypatch.setattr(field, "_kernel", lambda *args: ran.append(args))
    x0 = [-0.9, -1.0, 2.0]
    match = re.escape(f"gains are sized for (n, k) = ({n}, {k}), "
                      "the problem has (n, k) = (3, 2)")
    calls = [lambda: field_eval(red, params, x0),
             lambda: field.field_block(red, params, np.tile(x0, (30, 1))),
             lambda: solver.solve(red, params, solver.SolveConfig(max_iter=3), x0),
             lambda: flow.phase_grid(red, params, (0, 1), (-0.9, -0.8, -1.0, -0.9), (2, 2),
                                     x0, 0.01, 3)]
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()
    assert ran == []


# --- projector and Q --------------------------------------------------------

def test_projector_single_row():
    A = np.array([[1.0, 1.0, 1.0]])
    H = projector_h(A)
    assert np.allclose(H, np.eye(3) - np.ones((3, 3)) / 3)
    assert np.allclose(H @ H, H)
    assert np.allclose(H @ A.T, 0, atol=1e-15)


def test_projector_no_equalities():
    assert np.array_equal(projector_h(np.zeros((0, 4))), np.eye(4))


def test_projector_rank_deficient():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ConstraintQualificationError):
        projector_h(A)


def _steep_edge():
    """At x = 0 of min x s.t. -2x <= 0, a = 1e308 overflows w but not F."""
    p = Problem(names=("x",), objective=parse("x", ("x",)),
                inequalities=(parse("-2*x", ("x",)),))
    params = FieldParams(R1=[[1.0]], R2=[[0.0]], a=[1e308], b=[1.0],
                         c=[0.0], p=[1])
    return p, params, np.array([0.0])


@pytest.mark.parametrize("call, match", [
    (lambda: projector_h(np.array([[1e300, 0.0]])), "Gram matrix .* not finite"),
    (lambda: field_eval(*_steep_edge()), "w is not finite"),
], ids=["gram", "w"])
def test_non_finite_matrix_is_field_error(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldError, match=match) as exc:
            call()
    assert type(exc.value) is FieldError


def test_q_matrix_halfline():
    # H = I (no equalities), B = [-1], g(1) = -1: Q = 1 + 1 = 2
    fe = field_eval(_halfline(), FieldParams.default(1, 1), np.array([1.0]))
    assert fe.Q[0, 0] == 2.0


def test_q_matrix_reduced_41_origin(p41):
    _, red = p41
    Q = field_eval(red, FieldParams.default(red.n, red.k),
                   np.array([0.0, 0.0])).Q
    expected = np.array([[8.0, 1.0, -2.0, 1.0],
                         [1.0, 1.0, 0.0, -1.0],
                         [-2.0, 0.0, 1.0, -1.0],
                         [1.0, -1.0, -1.0, 4.0]])
    assert np.allclose(Q, expected, rtol=0, atol=1e-14)


# --- field evaluation -------------------------------------------------------

def test_halfline_interior_point():
    p = _halfline()
    params = FieldParams.default(1, 1)
    fe = field_eval(p, params, np.array([1.0]))
    assert fe.Q[0, 0] == 2.0
    assert np.isclose(fe.v[0], -0.5)
    assert fe.vplus[0] == 0.0
    assert np.isclose(fe.F[0], -0.5)
    assert np.isclose(fe.grad_theta @ fe.F, -0.5)
    assert np.isclose(fe.w[0], -1.0)
    assert np.isclose(dissipation(params, fe), -0.5)


def test_halfline_midpoint():
    p = _halfline()
    params = FieldParams.default(1, 1)
    fe = field_eval(p, params, np.array([0.5]))
    assert np.isclose(fe.F[0], -1.0 / 3.0)


def test_halfline_critical_point():
    p = _halfline()
    params = FieldParams.default(1, 1)
    fe = field_eval(p, params, np.array([0.0]))
    assert fe.g[0] == 0.0
    assert np.isclose(fe.v[0], -1.0)
    assert abs(fe.F[0]) <= 1e-15


def test_objective_and_gradient_oracles(p41, p42):
    full41, _ = p41
    assert evaluate(full41.objective, [0.0, 0.0, 2.0]) == -24.0
    full42, _ = p42
    g = np.asarray(grad(full42.objective, [0.0, 1.0, 2.0, -1.0]))
    assert np.array_equal(g, [-5.0, -3.0, -13.0, 5.0])


def test_field_vanishes_at_minimizer(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    fe = field_eval(red, params, np.array([0.0, 1.0, 2.0]))
    assert np.linalg.norm(fe.F) <= 1e-12


def test_equality_tangency(p41):
    full, _ = p41
    params = FieldParams.default(full.n, full.k)
    fe = field_eval(full, params, np.array([0.5, 0.5, 1.0]))
    assert np.allclose(fe.A @ fe.F, 0.0, atol=1e-14)
    assert np.allclose(fe.H @ fe.H, fe.H)


def test_infeasible_point_rejected(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k)
    with pytest.raises(InfeasiblePointError):
        field_eval(red, params, np.array([-1.0, -1.0]))


def test_dissipation_negative_off_critical(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k)
    fe = field_eval(red, params, np.array([-1.0, -1.0, -2.0]))
    assert dissipation(params, fe) < 0
    assert np.isclose(fe.grad_theta @ fe.F, dissipation(params, fe), rtol=1e-9)



def test_zero_gains_leave_out_their_power_terms():
    # v+ passes 1e77 here, so v+^(2p+2) overflows.  The default gains
    # c = 0 leave the term out instead of adding 0 * inf = NaN; pytest
    # fails on a RuntimeWarning.
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("x1^2 + 1e80*x2", names),
                inequalities=(parse("x2 - 2", names), parse("-x2 - 2", names)))
    params = FieldParams.default(2, 2)
    fe = field_eval(p, params, np.array([0.8, 1.4]))
    assert fe.vplus.max() > 1e77
    assert np.array_equal(fe.r3, params.b)
    assert dissipation(params, fe) < 0


# --- the kernel's Cholesky solves against scipy.linalg's ----------------------

# P, omega and H against scipy.linalg.cho_solve on the kernel's own Q and
# Gram matrix, in units of eps * (1 + max |scipy's|): about 8 times the
# worst seen at these points (24, 43 and 0.5).
SOLVE_BOUND = {"P": 256, "omega": 512, "H": 8}


def _within(got, want, ulps):
    scale = 1.0 + np.abs(want).max(initial=0.0)
    return np.abs(got - want).max(initial=0.0) <= ulps * np.finfo(float).eps * scale


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_cholesky_solves_match_scipy_within_bound(name, request):
    full, red = request.getfixturevalue(name)
    for x in sample_feasible(red, 20, seed=11):
        for p, point in ((red, x), (full, red.lift(x))):
            fe = field_eval(p, FieldParams.default(p.n, p.k), point)
            cho = scipy.linalg.cho_factor(fe.Q, lower=True)
            assert _within(fe.P, scipy.linalg.cho_solve(cho, fe.B @ fe.H), SOLVE_BOUND["P"])
            assert _within(fe.omega, scipy.linalg.cho_solve(cho, fe.w), SOLVE_BOUND["omega"])
            if p.m:
                cho = scipy.linalg.cho_factor(fe.A @ fe.A.T, lower=True)
                H = np.eye(p.n) - fe.A.T @ scipy.linalg.cho_solve(cho, fe.A)
                assert _within(fe.H, 0.5 * (H + H.T), SOLVE_BOUND["H"])


def test_norms_are_linalg_norm_where_the_square_is_finite():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        F = rng.standard_normal((2000, n)) * 10.0 ** rng.uniform(-150, 150, (2000, 1))
        want = np.array([np.linalg.norm(row) for row in F])
        assert field.norms(F).tobytes() == want.tobytes()
        assert field.norms(F[:7].reshape(7, 1, n))[:, 0].tobytes() == want[:7].tobytes()
    assert isinstance(float(field.norms(F[0])), float)


def test_norms_rescale_rows_whose_square_overflows():
    F = np.array([[3e200, 4e200], [-2e154, 2e154], [1.5e308, 1.5e308], [1e-310, 0.0], [3.0, 4.0]])
    got = field.norms(F)  # pytest fails on a RuntimeWarning
    assert got[:2] == pytest.approx([5e200, 2 ** 1.5 * 1e154], rel=1e-15)
    assert got[2] == np.inf  # the norm itself is past the largest float
    assert got[3:].tolist() == [np.linalg.norm(F[3]), 5.0]  # the square is finite
