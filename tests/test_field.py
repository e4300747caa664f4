import warnings

import numpy as np
import pytest
import scipy.linalg

from nlpflow import field
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
])
def test_params_validation(mutate, message):
    base = dict(R1=np.eye(2), R2=np.zeros((1, 1)),
                a=[1.0], b=[1.0], c=[0.0], p=[1])
    base.update(mutate)
    with pytest.raises(ValueError, match=message):
        FieldParams(**base)


def test_default_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        FieldParams.default(2, 1, sigma=0.0)


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
    assert np.isclose(fe.dtheta_F, -0.5)
    assert np.isclose(fe.w[0], -1.0)
    assert np.isclose(dissipation(fe), -0.5)


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
    assert dissipation(fe) < 0
    assert np.isclose(fe.dtheta_F, dissipation(fe), rtol=1e-9)



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
    assert dissipation(fe) < 0


# --- LAPACK against scipy.linalg's wrappers ---------------------------------

def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("name", ["p41", "p42"])
def test_cholesky_matches_scipy_bit_for_bit(name, request):
    full, red = request.getfixturevalue(name)
    for x in sample_feasible(red, 20, seed=11):
        for p, point in ((red, x), (full, red.lift(x))):
            fe = field_eval(p, FieldParams.default(p.n, p.k), point)
            cho = scipy.linalg.cho_factor(fe.Q, lower=True)
            factor, info = field._potrf(fe.Q, lower=True, clean=False)
            assert info == 0 and _bits(factor) == _bits(cho[0])
            assert _bits(fe.P) == _bits(scipy.linalg.cho_solve(cho, fe.B @ fe.H))
            assert _bits(fe.omega) == _bits(scipy.linalg.cho_solve(cho, fe.w))
            if p.m:
                gram = fe.A @ fe.A.T
                cho = scipy.linalg.cho_factor(gram, lower=True)
                factor, info = field._potrf(gram, lower=True, clean=False)
                assert info == 0 and _bits(factor) == _bits(cho[0])
                H = np.eye(p.n) - fe.A.T @ scipy.linalg.cho_solve(cho, fe.A)
                assert _bits(fe.H) == _bits(0.5 * (H + H.T))


def test_potrf_and_potrs_are_scipy_linalg_functions():
    # field loads SciPy's LAPACK extension without the scipy.linalg package;
    # once that package is imported, its lookup gives the very same objects.
    potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
    assert field._potrf is potrf and field._potrs is potrs


def test_missing_lapack_module_is_an_import_error_naming_it(monkeypatch):
    monkeypatch.setattr(field.importlib.machinery.PathFinder, "find_spec",
                        lambda *args: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        field._load_flapack()


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
