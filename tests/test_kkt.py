import numpy as np
import pytest

import kkt_reference as ref
from nlpflow.exprlang import parse
from nlpflow.field import FieldParams, field_block, field_eval
from nlpflow.io import sample_feasible
from nlpflow.kkt import kkt_residual, kkt_residuals, multipliers
from nlpflow.model import Problem


def _report_at(p, x, params):
    """The KKT report at ``x`` with the multipliers of the field there."""
    return kkt_residual(p, x, *multipliers(p, field_eval(p, params, x)))


def test_rosen_suzuki_multipliers(p42):
    _, red = p42
    params = FieldParams.default(red.n, red.k, sigma=0.2)
    x = np.array([0.0, 1.0, 2.0])
    fe = field_eval(red, params, x)
    lam, mu = multipliers(red, fe)
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
    report = _report_at(full, x, params)
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
    report = _report_at(p, x, params)
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
        _report_at(p, x, params)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _multiplier_rows(p, points, params):
    """Each point's multipliers, then the same rows with mu edited: NaN,
    -0.0 and negative entries, and one so large that the square of the
    stationarity vector overflows."""
    lam, mu = zip(*(multipliers(p, field_eval(p, params, x)) for x in points))
    lam, mu = np.array(lam).reshape(len(points), p.m), np.array(mu)
    edited = mu.copy()
    edited[0::5, 0] = np.nan
    edited[1::5] = -0.0
    edited[2::5, -1] = -3.5
    edited[3::5, 0] = 1e200
    edited[4::5, 0] = -1e155
    return [(lam, mu), (lam, edited)]


@pytest.mark.parametrize("space", ["reduced", "full"])
@pytest.mark.parametrize("name", ["p41", "p42"])
def test_kkt_residuals_match_one_point_reference(name, space, p41, p42):
    """Every row of the residuals on a field block's columns, and the
    one-row ``kkt_residual``, has the bits of the one-point formula at
    that point alone; the columns are not written."""
    full, red = {"p41": p41, "p42": p42}[name]
    points = sample_feasible(red, 50, seed=12)
    p = red
    if space == "full":
        p, points = full, np.array([red.lift(x) for x in points])
    params = FieldParams.default(p.n, p.k, sigma=0.7)
    fields, errors = field_block(p, params, points)
    assert errors == [None] * len(points)
    columns = (fields.grad_theta, fields.A, fields.B, fields.g)
    before = [c.tobytes() for c in columns]
    for edited, (lam, mu) in enumerate(_multiplier_rows(p, points, params)):
        block = kkt_residuals(*columns, lam, mu)
        assert [c.tobytes() for c in columns] == before
        for j, x in enumerate(points):
            with np.errstate(over="ignore"):  # the reference's norm warns as it overflows
                want = ref.kkt_residuals(p, x, lam[j], mu[j])
            assert _bits([r[j] for r in block]) == _bits(want)
            rep = kkt_residual(p, x, lam[j], mu[j])
            assert _bits([rep.stationarity_residual, rep.complementarity_residual,
                          rep.mu_negativity]) == _bits(want)
            assert rep.is_critical == (max(want) <= 1e-6 and not np.isnan(want).any())
        # The edits reach every case: a NaN complementarity, an overflowing
        # stationarity and a negative multiplier.
        if edited:
            assert np.isinf(block[0]).any() and np.isnan(block[1]).any()
            assert (block[2] == 3.5).any() and (block[2][0::5] == 0.0).all()


def test_kkt_residuals_without_inequalities():
    """With k = 0 complementarity and mu-negativity are 0, and stationarity
    has the one-point formula's bits, on the field block's columns."""
    names = ("x1", "x2", "x3")
    p = Problem(names=names, objective=parse("x1^2 + 2*x2^2 + x3^2 - x1*x3", names),
                equalities=(parse("x1 + x2 + x3 - 3", names),))
    rng = np.random.default_rng(4)
    points = [[a, b, 3.0 - a - b] for a, b in rng.uniform(-2.0, 2.0, size=(20, 2)).tolist()]
    fields, errors = field_block(p, FieldParams.default(3, 0), points)
    assert errors == [None] * len(points)
    lam, mu = rng.standard_normal((20, 1)), np.zeros((20, 0))
    stationarity, complementarity, mu_neg = kkt_residuals(
        fields.grad_theta, fields.A, fields.B, fields.g, lam, mu)
    assert complementarity.tolist() == mu_neg.tolist() == [0.0] * 20
    for j, x in enumerate(points):
        want = ref.kkt_residuals(p, x, lam[j], mu[j])
        assert _bits([stationarity[j], complementarity[j], mu_neg[j]]) == _bits(want)
        rep = kkt_residual(p, x, lam[j], mu[j])
        assert _bits([rep.stationarity_residual, rep.complementarity_residual,
                      rep.mu_negativity]) == _bits(want)
