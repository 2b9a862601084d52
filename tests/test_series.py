"""Exact-series layer: constructors against brute-force product expansions,
ring laws, and truncation soundness."""
from __future__ import annotations

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from thetaprod.series import (
    LATTICE,
    PowerSeries,
    add,
    add_scalar,
    check_entry24,
    f_terms,
    invert,
    mul,
    phi_terms,
    pow_int,
    psi_terms,
    scalar_mul,
    scale_argument,
    series_f,
    series_phi,
    series_psi,
    shift,
    sub,
)


# ---------------------------------------------------------------- oracles

def poly_mul(a: dict[int, int], b: dict[int, int], cap: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e <= cap:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def euler_product(cap: int, k: int = 1) -> dict[int, int]:
    """Brute-force expansion of prod_{n>=1} (1 - q^(k n)) to q-order cap."""
    out = {0: 1}
    n = 1
    while k * n <= cap:
        out = poly_mul(out, {0: 1, k * n: -1}, cap)
        n += 1
    return out


def chi_times_f2(cap: int) -> dict[int, int]:
    """Brute-force (-q; q^2)_inf * (q^2; q^2)_inf, the f(q) oracle."""
    out = {0: 1}
    n = 1
    while 2 * n - 1 <= cap:
        out = poly_mul(out, {0: 1, 2 * n - 1: 1}, cap)
        n += 1
    n = 1
    while 2 * n <= cap:
        out = poly_mul(out, {0: 1, 2 * n: -1}, cap)
        n += 1
    return out


def on_lattice(poly: dict[int, int]) -> dict[int, Fraction]:
    return {LATTICE * e: Fraction(c) for e, c in poly.items()}


# ---------------------------------------------------------------- constructors

def test_f_minus_order_288_matches_display():
    s = series_f(1, "minus", 24 * 12)
    expected = {0: 1, 24: -1, 48: -1, 120: 1, 168: 1, 288: -1}
    assert s.coeffs == {e: Fraction(c) for e, c in expected.items()}
    assert s.order == 288


def test_f_minus_order_zero_is_one():
    s = series_f(1, "minus", 0)
    assert s.coeffs == {0: Fraction(1)}


def test_f_minus_doubling():
    doubled = series_f(2, "minus", 24 * 24)
    base = series_f(1, "minus", 24 * 12)
    assert doubled.coeffs == {2 * e: c for e, c in base.coeffs.items()}


def test_f_minus_agrees_with_euler_product_to_order_50():
    cap = 50
    assert series_f(1, "minus", LATTICE * cap).coeffs == on_lattice(euler_product(cap))


def test_f_plus_agrees_with_chi_product_oracle():
    cap = 30
    assert series_f(1, "plus", LATTICE * cap).coeffs == on_lattice(chi_times_f2(cap))


def test_f_plus_sign_pattern():
    s = series_f(1, "plus", 24 * 26)
    got = {e // LATTICE: int(c) for e, c in s.coeffs.items()}
    assert got == {0: 1, 1: 1, 2: -1, 5: -1, 7: -1, 12: -1, 15: 1, 22: 1, 26: 1}


def test_phi_psi_displays():
    assert series_phi("plus", 24 * 10).coeffs == {
        0: Fraction(1), 24: Fraction(2), 96: Fraction(2), 216: Fraction(2)}
    assert series_psi("plus", 24 * 10).coeffs == {
        0: Fraction(1), 24: Fraction(1), 72: Fraction(1),
        144: Fraction(1), 240: Fraction(1)}
    assert series_phi("minus", 0).coeffs == {0: Fraction(1)}
    assert series_psi("minus", 24 * 10).coeffs == {
        0: Fraction(1), 24: Fraction(-1), 72: Fraction(-1),
        144: Fraction(1), 240: Fraction(1)}


@pytest.mark.parametrize("terms", [f_terms, phi_terms, psi_terms])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_term_streams_announce_their_next_exponent(terms, sign):
    # the numeric sums bound their tail by the third field, the exponent of
    # the first term they did not add
    items = list(islice(terms(sign), 200))
    assert items[0][0] == 0
    for (n, _, nxt), (later, _, _) in zip(items, items[1:]):
        assert n < later == nxt


def test_constructor_validation():
    with pytest.raises(ValueError):
        series_f(0, "minus", 24)
    with pytest.raises(ValueError):
        series_f(1, "bogus", 24)
    with pytest.raises(ValueError):
        series_phi("plus", -1)


# ------------------------------------------------------- classical eta bridges

def test_psi_minus_as_eta_quotient():
    # psi(-q) = f(-q) f(-q^4) / f(-q^2)
    n = 24 * 40
    lhs = series_psi("minus", n)
    rhs = mul(mul(series_f(1, "minus", n), series_f(4, "minus", n)),
              invert(series_f(2, "minus", n)))
    assert sub(lhs, rhs).is_zero()


def test_phi_plus_as_eta_quotient():
    # phi(q) = f(-q^2)^5 / (f(-q)^2 f(-q^4)^2)
    n = 24 * 40
    lhs = series_phi("plus", n)
    rhs = mul(pow_int(series_f(2, "minus", n), 5),
              pow_int(mul(series_f(1, "minus", n), series_f(4, "minus", n)), -2))
    assert sub(lhs, rhs).is_zero()


# ---------------------------------------------------------------- arithmetic

def test_invert_roundtrip_geometric():
    one_minus_q = PowerSeries.from_terms({0: 1, 24: -1}, 24 * 20)
    prod = mul(one_minus_q, invert(one_minus_q))
    assert prod.coeffs == {0: Fraction(1)}


def test_invert_rejects_zero():
    with pytest.raises(ValueError):
        invert(PowerSeries.zero(48))


def test_pow_one_is_identity():
    s = series_f(1, "minus", 24 * 8)
    assert pow_int(s, 1) == s


def test_mul_order_propagation():
    a = PowerSeries.from_terms({24: 1}, 240)      # leading 24, order 240
    b = PowerSeries.from_terms({48: 1}, 480)      # leading 48, order 480
    prod = mul(a, b)
    assert prod.order == min(240 + 48, 480 + 24)
    assert prod.coeffs == {72: Fraction(1)}


def test_invert_order_propagation():
    # leading exponent l, order N -> inverse sound to N - 2l
    a = PowerSeries.from_terms({24: 1, 48: -1}, 240)
    inv = invert(a)
    assert inv.order == 240 - 48
    check = mul(a, inv)
    assert check.coeffs == {0: Fraction(1)}


def test_shift_and_scale():
    s = PowerSeries.from_terms({0: 1, 24: 2}, 48)
    assert shift(s, -12).coeffs == {-12: Fraction(1), 12: Fraction(2)}
    assert shift(s, -12).order == 36
    assert scale_argument(s, 3).coeffs == {0: Fraction(1), 72: Fraction(2)}
    assert scale_argument(s, 3).order == 144


def test_scalar_helpers():
    s = PowerSeries.from_terms({0: 1, 24: 1}, 48)
    assert scalar_mul(Fraction(3, 2), s).coeffs == {0: Fraction(3, 2), 24: Fraction(3, 2)}
    assert add_scalar(s, -1).coeffs == {24: Fraction(1)}


def test_truncation_soundness_on_constructors():
    lo = series_f(1, "minus", 24 * 10)
    hi = series_f(1, "minus", 24 * 40)
    assert lo.coeffs == {e: c for e, c in hi.coeffs.items() if e <= lo.order}


def test_coefficient_beyond_order_rejected():
    s = series_f(1, "minus", 24)
    with pytest.raises(ValueError):
        s.coefficient(25)


# ---------------------------------------------------------------- entry checks

def test_check_entry24_passes():
    assert check_entry24(24 * 30).ok


def test_check_entry24_order_zero():
    assert check_entry24(0).ok


def test_dropped_factor_fails_at_small_exponent():
    # drop the phi factor from the first product identity
    n = 24 * 12
    bad = sub(mul(series_f(1, "plus", n), series_f(2, "minus", n)),
              series_psi("minus", n))
    assert bad.first_nonzero() == 24


# ---------------------------------------------------------------- ring laws

fractions_st = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=8,
).filter(lambda f: f != 0)


@st.composite
def sparse_series(draw, nonzero=False):
    n_terms = draw(st.integers(min_value=1 if nonzero else 0, max_value=6))
    exps = draw(st.lists(st.integers(min_value=-48, max_value=120),
                         min_size=n_terms, max_size=n_terms, unique=True))
    coeffs = {e: draw(fractions_st) for e in exps}
    slack = draw(st.integers(min_value=0, max_value=72))
    order = max(exps, default=0) + slack
    return PowerSeries.from_terms(coeffs, order)


@settings(max_examples=60, deadline=None)
@given(sparse_series(nonzero=True), sparse_series(nonzero=True))
def test_mul_commutative(a, b):
    assert mul(a, b) == mul(b, a)


@settings(max_examples=60, deadline=None)
@given(sparse_series(nonzero=True), sparse_series(nonzero=True), sparse_series(nonzero=True))
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=60, deadline=None)
@given(sparse_series(), sparse_series(), sparse_series(nonzero=True))
def test_mul_distributes_over_add(a, b, c):
    lhs = mul(add(a, b), c)
    rhs = add(mul(a, c), mul(b, c))
    common = min(lhs.order, rhs.order)
    assert {e: v for e, v in lhs.coeffs.items() if e <= common} == \
           {e: v for e, v in rhs.coeffs.items() if e <= common}


@settings(max_examples=60, deadline=None)
@given(sparse_series(nonzero=True))
# integral with a unit lead: the recurrence runs on ints
@example(PowerSeries.from_terms({-24: -1, 24: 3, 72: -2, 96: 7}, 480))
def test_invert_is_two_sided_inverse(a):
    inv = invert(a)
    assert all(type(c) is Fraction for c in inv.coeffs.values())
    left = mul(a, inv)
    right = mul(inv, a)
    assert left.coeffs == {0: Fraction(1)}
    assert right.coeffs == {0: Fraction(1)}


@settings(max_examples=60, deadline=None)
@given(sparse_series(nonzero=True), sparse_series(nonzero=True),
       st.integers(min_value=1, max_value=5))
def test_scale_argument_is_ring_homomorphism(a, b, k):
    assert scale_argument(mul(a, b), k) == mul(scale_argument(a, k), scale_argument(b, k))
    assert scale_argument(add(a, b), k) == add(scale_argument(a, k), scale_argument(b, k))


# ------------------------------------------------------- multiplication oracle

def schoolbook_mul(a: PowerSeries, b: PowerSeries) -> tuple[dict[int, Fraction], int]:
    """Term-by-term convolution, cut at the sound order of the product."""
    la = min(a.coeffs, default=a.order + 1)
    lb = min(b.coeffs, default=b.order + 1)
    order = min(a.order + lb, b.order + la)
    out: dict[int, Fraction] = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            if ea + eb <= order:
                out[ea + eb] = out.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}, order


@st.composite
def wide_series(draw):
    """Series on a drawn lattice step with coefficients up to about 10^40 of
    either sign over mixed denominators, leading exponents of either sign,
    and orders that may cut every term (an empty operand).  Some draws give
    every term the same value 2^k - 1, which fills each product coefficient
    up to its slot's capacity."""
    step = draw(st.sampled_from([1, 2, 3, 8, 12, 24]))
    lead = draw(st.integers(min_value=-72, max_value=72))
    offsets = draw(st.lists(st.integers(min_value=0, max_value=40), max_size=25, unique=True))
    if draw(st.booleans()):
        full = (1 << draw(st.integers(min_value=1, max_value=140))) - 1
        coeffs = {lead + step * o: Fraction(full) for o in offsets}
    else:
        coeffs = {}
        for o in offsets:
            size = 10 ** draw(st.integers(min_value=0, max_value=40))
            num = draw(st.integers(min_value=-size, max_value=size).filter(lambda n: n != 0))
            coeffs[lead + step * o] = Fraction(num, draw(st.integers(min_value=1, max_value=60)))
    order = lead + draw(st.integers(min_value=-24, max_value=step * 40 + 24))
    return PowerSeries.from_terms(coeffs, order)


BIG = 10 ** 40


@settings(max_examples=300, deadline=None)
@given(wide_series(), wide_series())
@example(PowerSeries.zero(48), PowerSeries.from_terms({-24: 3, 0: 1}, 96))
@example(PowerSeries.from_terms({-24: 3, 0: 1}, 96), PowerSeries.zero(-30))
@example(PowerSeries.from_terms({0: BIG, 1: -BIG, 2: BIG, 3: -1}, 10),
         PowerSeries.from_terms({0: -BIG, 1: BIG, 2: Fraction(BIG, 7), 3: 1}, 10))
@example(PowerSeries.from_terms({5: Fraction(1, 3), 29: Fraction(-2, 9)}, 60),
         PowerSeries.from_terms({-7: Fraction(5, 4), 1: -1, 17: Fraction(1, 6)}, 20))
@example(PowerSeries.from_terms({70: 1, 71: 2}, 71), PowerSeries.from_terms({72: -3, 73: 1}, 73))
@example(PowerSeries.from_terms({0: 255}, 0), PowerSeries.from_terms({0: 255}, 0))
@example(PowerSeries.from_terms({e: 127 for e in range(4)}, 3),
         PowerSeries.from_terms({e: 127 for e in range(4)}, 3))
def test_mul_matches_schoolbook_convolution(a, b):
    coeffs, order = schoolbook_mul(a, b)
    product = mul(a, b)
    assert product.order == order
    assert product.coeffs == coeffs
    assert all(type(c) is Fraction for c in product.coeffs.values())
