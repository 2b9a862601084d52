"""Tests for the checked-precision scalar layer."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp, mpf, workdps

from thetaprod.precision import (PrecisionError, PrecisionSpec, RealValue,
                                 compute_checked, digits_agreed, rv_exp, rv_pi)


# ---------------------------------------------------------------------------
# PrecisionSpec
# ---------------------------------------------------------------------------

def test_spec_default_guard_scales_with_target():
    assert PrecisionSpec.of(100).guard_digits == 35
    assert PrecisionSpec.of(10).guard_digits == 17
    assert PrecisionSpec.of(100).working_digits == 135


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PrecisionSpec(0, 20)
    with pytest.raises(ValueError):
        PrecisionSpec(50, 14)
    # 15 guard digits is the documented floor, not an error
    assert PrecisionSpec(50, 15).working_digits == 65


def test_spec_budget_and_widening():
    spec = PrecisionSpec(40, 15)
    assert RealValue(mpf(1), mpf(10) ** -41).meets(spec)
    assert not RealValue(mpf(1), mpf(10) ** -39).meets(spec)
    wider = spec.widened()
    assert wider.target_digits == 40
    assert wider.guard_digits > spec.guard_digits


# ---------------------------------------------------------------------------
# RealValue arithmetic
# ---------------------------------------------------------------------------

def test_exact_constructors():
    assert RealValue.exact(3).error_bound == 0
    v = RealValue.from_fraction(Fraction(1, 3))
    assert v.error_bound > 0
    assert abs(v.magnitude - mpf(1) / 3) <= v.error_bound


def test_division_by_noise_is_refused():
    tiny = RealValue(mpf("1e-40"), mpf("1e-39"))
    with pytest.raises(PrecisionError):
        RealValue.exact(1) / tiny


def test_powi_matches_repeated_multiplication():
    with workdps(40):
        v = RealValue.from_fraction(Fraction(7, 5))
        direct = v * v * v * v * v
        assert v.powi(5).magnitude == pytest.approx(float(direct.magnitude))
        inv = v.powi(-3)
        assert abs(inv.magnitude * v.magnitude ** 3 - 1) < mpf("1e-35")
    assert RealValue.exact(0).powi(0).magnitude == 1


def test_powf_rational_exponent():
    with workdps(50):
        v = RealValue.exact(2)
        r = v.powf(Fraction(3, 2))
        assert abs(r.magnitude - mp.sqrt(8)) <= r.error_bound + mpf("1e-45")
        with pytest.raises(PrecisionError):
            RealValue.exact(-2).powf(Fraction(1, 2))


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=20),
       st.fractions(min_value=-50, max_value=50, max_denominator=20),
       st.fractions(min_value=-50, max_value=50, max_denominator=20))
def test_error_bounds_are_honest(a, b, c):
    """Chained +,-,* on exact rationals stays within the claimed bound."""
    with workdps(30):
        ra, rb, rc = (RealValue.from_fraction(x) for x in (a, b, c))
        got = (ra + rb) * rc - ra * rb
        true = (a + b) * c - a * b
        err = abs(got.magnitude - mpf(true.numerator) / mpf(true.denominator))
        assert err <= got.error_bound + mpf("1e-27")


# ---------------------------------------------------------------------------
# ball oracle: every RealValue operation against mpmath.iv
# ---------------------------------------------------------------------------

# a leaf is ("leaf", m, rel): the ball m +- rel*|m|; inner nodes name an operation
LEAVES = st.tuples(st.just("leaf"),
                   st.fractions(min_value=-10, max_value=10, max_denominator=1000),
                   st.one_of(st.just(Fraction(0)),
                             st.fractions(min_value=0, max_value=Fraction(1, 10),
                                          max_denominator=10**6)))
TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.tuples(st.sampled_from(("add", "sub", "mul", "div")), kids, kids),
    st.tuples(st.just("powi"), kids, st.integers(min_value=-3, max_value=4)),
    st.tuples(st.just("powf"), kids,
              st.fractions(min_value=-3, max_value=3, max_denominator=6)),
    st.tuples(st.sampled_from(("sqrt", "exp")), kids)), max_leaves=6)


def _balls(node):
    """The tree with each leaf made a RealValue at the current precision."""
    if node[0] == "leaf":
        m = mpf(node[1].numerator) / node[1].denominator
        return ("leaf", RealValue(m, mpf(node[2].numerator) / node[2].denominator * abs(m)))
    return (node[0],) + tuple(_balls(k) if isinstance(k, tuple) else k for k in node[1:])


def _ball_value(node) -> RealValue:
    """Evaluate with RealValue; a tree outside an operation's domain is
    rejected (a refused division or power is PrecisionError by design)."""
    op = node[0]
    if op == "leaf":
        return node[1]
    x = _ball_value(node[1])
    if op in ("add", "sub", "mul", "div"):
        y = _ball_value(node[2])
        try:
            return {"add": x.__add__, "sub": x.__sub__, "mul": x.__mul__,
                    "div": x.__truediv__}[op](y)
        except PrecisionError:
            assume(False)
    if op == "exp":
        assume(abs(x.magnitude) + x.error_bound < 50)
        return rv_exp(x)
    if op in ("sqrt", "powf"):
        # a fractional power is defined only on a positive ball
        assume(x.magnitude - x.error_bound > 0)
    try:
        if op == "powi":
            return x.powi(node[2])
        return x.sqrt() if op == "sqrt" else x.powf(node[2])
    except PrecisionError:
        assume(False)


def _iv_value(node):
    """The same tree in mpmath.iv; the leaf interval is exactly the ball."""
    op = node[0]
    if op == "leaf":
        m, e = node[1].magnitude, node[1].error_bound
        return iv.mpf(m) + iv.mpf([-1, 1]) * e
    x = _iv_value(node[1])
    if op == "add":
        return x + _iv_value(node[2])
    if op == "sub":
        return x - _iv_value(node[2])
    if op == "mul":
        return x * _iv_value(node[2])
    if op == "div":
        return x / _iv_value(node[2])
    if op == "powi":
        return x ** node[2]
    if op == "powf":
        r = node[2]
        return x ** r.numerator if r.denominator == 1 else x ** (iv.mpf(r.numerator) / r.denominator)
    return iv.sqrt(x) if op == "sqrt" else iv.exp(x)


@pytest.mark.parametrize("dps", [30, 200, 1000])
def test_ball_encloses_interval_arithmetic(dps):
    """The ball of any expression tree over + - * / powi powf sqrt exp,
    on balls of radius up to 10% of the midpoint, holds the mpmath.iv
    interval of the same tree computed 30 digits further, with no slack."""

    @settings(max_examples=120 if dps < 1000 else 40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(TREES)
    def check(tree):
        with workdps(dps):
            node = _balls(tree)
            got = _ball_value(node)
        saved, iv.dps = iv.dps, dps + 30
        try:
            want = _iv_value(node)
        finally:
            iv.dps = saved
        with workdps(dps + 30):
            lo, hi = mpf(want.a), mpf(want.b)
        m, e = got.magnitude, got.error_bound
        assert mp.fsub(m, lo, exact=True) <= e
        assert mp.fsub(hi, m, exact=True) <= e

    check()


def test_meets_uses_relative_budget_for_large_values():
    spec = PrecisionSpec(30, 15)
    big = RealValue(mpf("1e10"), mpf("1e-25"))
    # relative budget: 1e-25 <= 1e-30 * 1e10
    assert big.meets(spec)
    small = RealValue(mpf("0.5"), mpf("1e-25"))
    assert not small.meets(spec)


# ---------------------------------------------------------------------------
# compute_checked
# ---------------------------------------------------------------------------

def test_compute_checked_passes_first_time():
    spec = PrecisionSpec.of(50)
    v = compute_checked(spec, lambda: rv_exp(RealValue.exact(1)))
    assert v.meets(spec)
    with workdps(70):
        assert digits_agreed(v, mp.e) >= 50


def test_compute_checked_retries_with_wider_guard():
    spec = PrecisionSpec(50, 15)
    calls = []

    def builder():
        calls.append(mp.dps)
        # error that only shrinks below 1e-50 once the guard widens
        return RealValue(mpf(1), mpf(10) ** (-(mp.dps - 30)))

    v = compute_checked(spec, builder)
    assert v.meets(spec)
    assert len(calls) >= 2
    assert calls[1] > calls[0]


def test_compute_checked_sizes_the_retry_from_the_missed_ball():
    # a radius of 10^-(dps/2), as from a double root: the ball at 135 digits
    # certifies about 66, so the retry goes to about 135 + 2 (100 - 66) + 35
    # digits and meets the budget, where doubling the guard needs two retries
    spec = PrecisionSpec(100, 35)
    calls = []

    def builder():
        calls.append(mp.dps)
        return RealValue(mpf(1), mpf(10) ** -(mp.dps // 2))

    assert compute_checked(spec, builder).meets(spec)
    assert len(calls) == 2


def test_compute_checked_retries_a_refused_computation():
    spec = PrecisionSpec(50, 15)
    calls = []

    def builder():
        calls.append(mp.dps)
        if len(calls) == 1:
            raise PrecisionError("refused at the first guard")
        return rv_exp(RealValue.exact(1))

    assert compute_checked(spec, builder).meets(spec)
    assert len(calls) == 2 and calls[1] > calls[0]


def test_compute_checked_raises_the_last_refusal():
    calls = []

    def builder():
        calls.append(mp.dps)
        return RealValue.exact(1) / RealValue(mpf(0), mpf(1))

    with pytest.raises(PrecisionError, match="indistinguishable from zero"):
        compute_checked(PrecisionSpec(50, 15), builder)
    assert len(calls) == 4


def test_compute_checked_gives_up_honestly():
    spec = PrecisionSpec(50, 15)
    with pytest.raises(PrecisionError):
        compute_checked(spec, lambda: RealValue(mpf(1), mpf(1)))


def test_rv_pi_at_current_precision():
    with workdps(60):
        v = rv_pi()
        assert digits_agreed(v, mp.pi) >= 58


# ---------------------------------------------------------------------------
# digits_agreed
# ---------------------------------------------------------------------------

def test_digits_agreed_basics():
    with workdps(30):
        assert digits_agreed(mpf(1), mpf(1)) == 30
        assert digits_agreed(mpf("1.00000001"), mpf(1)) == 8
        assert digits_agreed(mpf(2), mpf(3)) <= 1
