"""Tests for the cross-checked product evaluator."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from thetaprod import products
from thetaprod.precision import (PrecisionError, PrecisionSpec, RealValue,
                                 compute_checked, digits_agreed)
from thetaprod.products import (FORMS, CrossFormError, ProductValue, a_numeric,
                                b_numeric, product_value)

P50 = PrecisionSpec.of(50)
P60 = PrecisionSpec.of(60)


def test_n1_collapse_exactly_one():
    for m in (2, 5, Fraction(7, 3)):
        got = a_numeric(m, 1, PrecisionSpec.of(30 + 10))
        assert abs(got.value.magnitude - 1) <= mpf(10) ** -30
        assert got.which == "a"
        assert got.forms_checked == tuple(FORMS["a"])


def test_b_n1_collapse():
    got = b_numeric(3, 1, P50)
    assert abs(got.value.magnitude - 1) <= mpf(10) ** -45


def test_a23_matches_published_radical():
    # a at (2,3) should equal (sqrt(2)-1) * sqrt(sqrt(3)+sqrt(2))
    got = a_numeric(2, 3, P60)
    with workdps(80):
        expected = (mp.sqrt(2) - 1) * mp.sqrt(mp.sqrt(3) + mp.sqrt(2))
        assert digits_agreed(got.value, expected) >= 60


def test_a25_matches_published_radical():
    # a at (2,5) should equal (sqrt(2)+1) * ((sqrt(5)-1)/2)^3
    got = a_numeric(2, 5, P60)
    with workdps(80):
        expected = (mp.sqrt(2) + 1) * ((mp.sqrt(5) - 1) / 2) ** 3
        assert digits_agreed(got.value, expected) >= 60


def test_b_forms_cover_both_labels():
    got = b_numeric(8, 3, P50)
    assert got.forms_checked == tuple(FORMS["b"])
    assert got.value.magnitude > 0


def test_rational_parameters():
    got = a_numeric(Fraction(3, 2), Fraction(5, 2), P50)
    assert got.value.magnitude > 0
    assert got.m == Fraction(3, 2)
    assert got.n == Fraction(5, 2)


def test_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        a_numeric(0, 3, P50)
    with pytest.raises(ValueError):
        b_numeric(2, -1, P50)


def test_every_form_must_meet_the_budget(monkeypatch):
    # a form whose bound never meets the budget fails the evaluation, even
    # though the other form alone would
    quotient_values = products.quotient_values
    euler = products._form_quotient("b", "euler_quotient", Fraction(13))

    def one_form_vague(exprs, q):
        values = quotient_values(exprs, q)
        return [RealValue(v.magnitude, mpf(1)) if e == euler else v
                for e, v in zip(exprs, values)]

    monkeypatch.setattr(products, "quotient_values", one_form_vague)
    with pytest.raises(PrecisionError):
        b_numeric(8, 13, P50)


def test_value_is_a_product_value():
    got = a_numeric(4, 3, P50)
    assert isinstance(got, ProductValue)
    assert got.value.error_bound <= mpf(10) ** -45


def test_precision_scaling_is_monotone():
    lo = a_numeric(10, 3, P50).value
    hi = a_numeric(10, 3, PrecisionSpec.of(100)).value
    with workdps(120):
        assert digits_agreed(lo, hi) >= 50


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 30), st.integers(1, 12),
       st.integers(1, 12), st.integers(1, 6))
def test_random_rational_grid_positive_and_consistent(mn, md, nn, nd):
    """Cross-form agreement is implicit (disagreement raises); positivity checked."""
    m, n = Fraction(mn, md), Fraction(nn, nd)
    got = a_numeric(m, n, PrecisionSpec.of(40))
    assert got.value.magnitude > 0
    gotb = b_numeric(m, n, PrecisionSpec.of(40))
    assert gotb.value.magnitude > 0


def readme_product(which, m, n):
    """a(m,n) or b(m,n) as the README writes it, from mpmath's qp and jtheta
    at the current mp.dps."""
    m, n = (mpf(Fraction(x).numerator) / Fraction(x).denominator for x in (m, n))
    q = mp.exp(-mp.pi * mp.sqrt(m / n))

    def psi(x):
        return mp.qp(x ** 2, x ** 2) / mp.qp(x, x ** 2)

    def phi(x):
        return mp.jtheta(3, 0, x)

    k = 2 if which == "a" else 1
    return (n * q ** ((n - 1) / 4) * psi(q ** n) ** 2 * phi(-q ** (k * n)) ** 2
            / (psi(q) ** 2 * phi(-q ** k) ** 2))


@pytest.mark.parametrize("m, n", [(2, 3), (Fraction(3, 2), Fraction(5, 2)),
                                  (3, 2), (5, 1), (7, Fraction(7, 6))])
@pytest.mark.parametrize("which, form",
                         [(w, f) for w, forms in FORMS.items() for f in forms])
def test_every_form_matches_the_readme_formula(which, form, m, n):
    with workdps(70):
        (got,) = products._evaluate_forms(which, (form,), Fraction(m), Fraction(n))
    with workdps(90):
        want = readme_product(which, m, n)
        assert digits_agreed(got.magnitude, want) >= 40


@pytest.mark.parametrize("which, m, n", [("a", 2, 3), ("a", 26, 5),
                                         ("b", 40, 3), ("b", 1, 7),
                                         ("a", Fraction(3, 2), Fraction(5, 2))])
def test_product_value_agrees_with_the_cross_checked_value(which, m, n):
    single = compute_checked(P50, lambda: product_value(which, m, n))
    checked = (a_numeric if which == "a" else b_numeric)(m, n, P50).value
    with workdps(P50.working_digits):
        assert digits_agreed(single, checked) >= P50.target_digits
