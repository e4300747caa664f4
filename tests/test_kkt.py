import numpy as np
import pytest

from nlpflow.exprlang import parse
from nlpflow.field import FieldParams, field_eval
from nlpflow.kkt import kkt_residual, multipliers, report_at
from nlpflow.model import Problem


def test_rosen_suzuki_multipliers(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    x = np.array([0.0, 1.0, 2.0])
    fe = field_eval(red, params, x)
    lam, mu = multipliers(red, x, fe)
    assert lam.size == 0
    assert np.allclose(mu, [1.0, 0.0], rtol=0, atol=1e-12)

    report = kkt_residual(red, x, lam, mu)
    assert report.is_critical
    assert report.stationarity_residual <= 1e-12
    assert report.complementarity_residual <= 1e-12
    assert report.mu_negativity == 0.0


def test_rosen_suzuki_full_space_multipliers(p42):
    # The equality multiplier of the full four-variable problem is 2.
    full, red = p42
    params = FieldParams.default(full.n, full.k, sigma=0.2)
    x = red.lift(np.array([0.0, 1.0, 2.0]))
    report = report_at(full, x, params)
    assert np.allclose(report.lam, [2.0], rtol=0, atol=1e-12)
    assert np.allclose(report.mu, [1.0, 0.0], rtol=0, atol=1e-12)
    assert report.is_critical


def test_wrong_multipliers_flagged(p42):
    _, red = p42
    x = np.array([0.0, 1.0, 2.0])
    report = kkt_residual(red, x, np.zeros(0), np.array([0.0, 0.0]))
    assert not report.is_critical
    assert report.stationarity_residual > 1.0


def test_negative_multiplier_flagged():
    names = ("x",)
    p = Problem(names=names, objective=parse("x^2", names),
                inequalities=(parse("-x", names),))
    report = kkt_residual(p, np.array([0.5]), np.zeros(0), np.array([-1.0]))
    assert report.mu_negativity == 1.0
    assert not report.is_critical


def test_is_critical_matches_field_norm(p41):
    _, red = p41
    params = FieldParams.default(red.n, red.k, sigma=2.0)
    assert np.linalg.norm(field_eval(red, params, np.array([0.0, 0.0])).F) <= 1e-6
    assert np.linalg.norm(field_eval(red, params, np.array([0.5, 0.5])).F) > 1e-6


def test_interior_minimizer_has_zero_mu():
    names = ("x1", "x2")
    p = Problem(names=names, objective=parse("(x1 - 1)^2 + x2^2", names),
                inequalities=(parse("x1 - 5", names),))
    params = FieldParams.default(2, 1)
    x = np.array([1.0, 0.0])
    report = report_at(p, x, params)
    assert report.is_critical
    assert np.allclose(report.mu, [0.0], atol=1e-12)


def test_rank_deficient_equalities_raise():
    names = ("x1", "x2", "x3")
    p = Problem(names=names, objective=parse("x1", names),
                equalities=(parse("x1 + x2", names),
                            parse("2*x1 + 2*x2", names)))
    x = np.array([1.0, -1.0, 0.0])
    from nlpflow.field import ConstraintQualificationError
    params = FieldParams.default(3, 0)
    with pytest.raises((np.linalg.LinAlgError, ConstraintQualificationError)):
        report_at(p, x, params)
