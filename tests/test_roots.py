"""The root isolator of both step policies against its oracles.

``solver._sign_changes(c, hi)`` lists where the polynomial P with
coefficients ``c`` (lowest first, degree at most 4) changes side of 0 on
(0, hi], a side being P > 0 or P <= 0; each change is the last float on
the old side, and no search runs past twice Cauchy's root bound.  On
Python floats that is a contract about P evaluated by Horner's rule,
which every returned point must meet.  Against exact
rationals (``fractions.Fraction``) the old side must hold at the returned
float and the new one at its successor wherever one Horner evaluation's
rounding cannot flip the sign, and against ``np.roots`` every simple root
inside the interval must be found, near where NumPy puts it.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpflow import solver

EPS = np.finfo(float).eps
HI = 1.0


def _coefficients(lead, roots):
    """The coefficients, lowest first, of lead * prod(s - r) on floats."""
    return (lead * np.poly(roots))[::-1].tolist() if roots else [lead]


def _side(c, s):
    return solver._at(c, s) > 0


def _exact(c, s):
    """P(s) in exact rational arithmetic."""
    v = Fraction(0)
    for ci in reversed(c):
        v = v * Fraction(s) + Fraction(ci)
    return v


def _rounding(c, s):
    """A bound on the rounding of one Horner evaluation of P at s."""
    return 4 * len(c) * EPS * sum(abs(ci) * abs(s) ** i for i, ci in enumerate(c))


def assert_contract(c, hi, changes):
    """Every change is the last float on the old side, in order, in [0, hi)."""
    up = _side(c, 0.0)
    assert changes == sorted(changes) and len(changes) <= max(len(c) - 1, 0)
    for t in changes:
        assert 0.0 <= t < hi
        assert _side(c, t) == up and _side(c, math.nextafter(t, math.inf)) != up
        up = not up
    assert _side(c, hi) == up


_LEAD = st.floats(0.1, 10.0).flatmap(lambda v: st.sampled_from([v, -v]))
_ROOT = st.floats(0.0, HI)


@settings(max_examples=400, deadline=None)
@given(lead=st.one_of(_LEAD, st.just(0.0)), roots=st.lists(_ROOT, max_size=4),
       doubled=st.booleans())
def test_changes_keep_the_contract_at_any_multiplicity(lead, roots, doubled):
    # Double roots, roots shared by several factors, and a leading
    # coefficient of exactly 0, which leaves an exact 0.0 at the top.
    if doubled and roots:
        roots = roots[:2] * 2
    c = _coefficients(lead, roots)
    changes = list(solver._sign_changes(c, HI))
    assert_contract(c, HI, changes)
    # The first change alone is the first of all of them, or hi.
    assert next(solver._sign_changes(c, HI), HI) == (changes[0] if changes else HI)


@settings(max_examples=400, deadline=None)
@given(lead=_LEAD, roots=st.lists(st.floats(1e-3, HI - 1e-3), min_size=1, max_size=4),
       hi=st.sampled_from([HI, 1e10, 1e300]))
def test_simple_roots_are_found_where_numpy_and_fractions_put_them(lead, roots, hi):
    roots = sorted(roots)
    if any(b - a < 1e-3 for a, b in zip(roots, roots[1:])):
        roots = roots[:1]
    c = _coefficients(lead, roots)
    changes = list(solver._sign_changes(c, hi))
    assert_contract(c, hi, changes)
    found = sorted(r.real for r in np.roots(c[::-1]) if 0.0 < r.real < hi)
    assert len(changes) == len(found) == len(roots)
    for t, r in zip(changes, found):
        assert abs(t - r) <= 1e-9
    up = _exact(c, 0.0) > 0
    for t in changes:
        after = math.nextafter(t, math.inf)
        for s, side in ((t, up), (after, not up)):
            v = _exact(c, s)
            assert (v > 0) == side or abs(v) <= _rounding(c, s), (c, t, s)
        up = not up


@settings(max_examples=200, deadline=None)
@given(lead=_LEAD, r=_ROOT, offset=st.sampled_from([0.0, 1e-300, 1e-30, 1e-16, 1e-12, 1e-8]),
       sign=st.sampled_from([1.0, -1.0]))
def test_near_tangent_quadratics(lead, r, offset, sign):
    # lead * ((s - r)^2 - sign * offset): a double root at offset 0, two
    # roots sqrt(offset) either side of r, or none.
    c = [lead * (r * r - sign * offset), -2.0 * lead * r, lead]
    changes = list(solver._sign_changes(c, HI))
    assert_contract(c, HI, changes)
    if sign > 0 and offset >= 1e-8 and 1e-3 < r < HI - 1e-3:
        assert len(changes) == 2
        assert all(abs(abs(t - r) - math.sqrt(offset)) <= 1e-9 for t in changes)


@settings(max_examples=200, deadline=None)
@given(lead=_LEAD, roots=st.lists(st.sampled_from([0.0, HI]), min_size=1, max_size=2),
       other=st.floats(0.1, 0.9))
def test_roots_at_the_ends(lead, roots, other):
    # A root at 0 puts 0 on the side P <= 0, so where P rises from it the
    # first change is 0.0 itself; a root at hi puts hi on that side.  The
    # root between is always among the changes.
    c = _coefficients(lead, [*roots, other])
    changes = list(solver._sign_changes(c, HI))
    assert_contract(c, HI, changes)
    assert any(abs(t - other) <= 1e-9 for t in changes)


def test_an_exact_zero_at_the_top_changes_nothing():
    c = [-0.5, 3.0, -2.0]
    assert list(solver._sign_changes(c + [0.0, 0.0], HI)) == list(solver._sign_changes(c, HI))
    for k in range(5):
        assert list(solver._sign_changes([0.0] * k, HI)) == []
    c = [-1.0, 0.0, 0.0, 0.0, 4.0]
    [t] = solver._sign_changes(c, HI)
    assert_contract(c, HI, [t])
    assert abs(t - math.sqrt(0.5)) <= EPS


def test_a_wide_interval_is_cut_to_twice_cauchys_bound(monkeypatch):
    # No root of s^2 - 4s + 3 lies past 2 (1 + 4) = 10, so the search on
    # [0, 1e300] is the search on [0, 10], evaluation for evaluation.  For
    # 1e-300 s - 1 the bound 1 + 1e300 rounds onto the root itself, whose
    # side there is P <= 0; twice the bound keeps the root inside.
    points = []
    value_slope = solver._value_slope

    def recording(c, s):
        points.append(s)
        return value_slope(c, s)
    monkeypatch.setattr(solver, "_value_slope", recording)
    c = [3.0, -4.0, 1.0]
    wide = list(solver._sign_changes(c, 1e300))
    wide_points, points[:] = list(points), []
    assert wide == list(solver._sign_changes(c, 10.0)) and wide_points == points
    assert_contract(c, 1e300, wide) and len(wide) == 2
    c = [-1.0, 1e-300]
    [t] = solver._sign_changes(c, 1e308)
    assert_contract(c, 1e308, [t]) and abs(t - 1e300) <= 1e285
