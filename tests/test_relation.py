"""Tests for relation-expression parsing and denominator clearing."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from thetaprod.relation import Poly2, RelationError, parse_relation


def poly(d):
    return Poly2({k: Fraction(v) for k, v in d.items()})


# ---------------------------------------------------------------------------
# Poly2 algebra
# ---------------------------------------------------------------------------

def test_poly_basic_algebra():
    p, q = Poly2.var("P"), Poly2.var("Q")
    expr = (p + q) * (p - q)
    assert expr == poly({(2, 0): 1, (0, 2): -1})
    assert (p * q).pow(3) == poly({(3, 3): 1})
    assert (p - p).is_zero()
    assert Poly2.const(0).is_zero()


def test_poly_pow_rejects_negative():
    with pytest.raises(ValueError):
        Poly2.var("P").pow(-1)


def test_poly_str_is_stable():
    s = str(poly({(2, 1): 3, (0, 0): -1}))
    assert "P^2" in s and "Q" in s and "-1" in s


# ---------------------------------------------------------------------------
# parsing and clearing
# ---------------------------------------------------------------------------

def test_parse_simple_difference():
    assert parse_relation("P - Q") == poly({(1, 0): 1, (0, 1): -1})


def test_parse_clears_monomial_denominators():
    got = parse_relation("P*Q + 9/(P*Q) - ((P/Q)^3 + (Q/P)^3)")
    # multiplied through by P^3 Q^3 relative to the P^-3 Q^-3 floor
    assert got == poly({(4, 4): 1, (2, 2): 9, (6, 0): -1, (0, 6): -1})


def test_parse_normalizes_integer_content():
    a = parse_relation("2*P - 2*Q")
    b = parse_relation("P - Q")
    assert a == b


def test_identically_zero_is_rejected():
    with pytest.raises(RelationError, match="identically zero"):
        parse_relation("(P - Q)*(P + Q) - P^2 + Q^2")


def test_single_monomial_is_rejected():
    with pytest.raises(RelationError, match="single monomial"):
        parse_relation("P/Q")
    with pytest.raises(RelationError, match="single monomial"):
        parse_relation("3*P^2*Q")


def test_negative_exponents_via_caret():
    got = parse_relation("P^-2 - Q^(-2)")
    assert got == poly({(0, 2): 1, (2, 0): -1})


def test_division_by_zero_expression():
    with pytest.raises(RelationError, match="division by zero"):
        parse_relation("P/(Q - Q)")


def test_syntax_errors_carry_positions():
    with pytest.raises(RelationError) as info:
        parse_relation("P + ", 1, 1)
    assert info.value.line == 1
    assert "column 5" in str(info.value)

    with pytest.raises(RelationError) as info:
        parse_relation("P +\n R", 1, 1)
    assert info.value.line == 2

    with pytest.raises(RelationError, match="exponent"):
        parse_relation("P^Q")

    with pytest.raises(RelationError, match="trailing"):
        parse_relation("P - Q)")


def test_fractional_constants_are_cleared():
    # constants only enter via division; clearing restores integrality
    got = parse_relation("P/2 - Q/3")
    assert got == poly({(1, 0): 3, (0, 1): -2})


def test_non_monomial_divisor_is_rejected_with_its_column():
    with pytest.raises(RelationError, match="not a monomial") as info:
        parse_relation("1/(P+Q) - P")
    assert (info.value.line, info.value.col) == (1, 2)
    with pytest.raises(RelationError, match="not a monomial"):
        parse_relation("(P - Q)^-1 + P")


# ---------------------------------------------------------------------------
# the fold against Fraction arithmetic
# ---------------------------------------------------------------------------

NONZERO = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])
MONOMIALS = st.builds("{}*P^{}*Q^{}".format, NONZERO, st.integers(-2, 2),
                      st.integers(-2, 2))
LEAVES = st.one_of(st.integers(0, 9).map(str), st.sampled_from(["P", "Q"]), MONOMIALS)
# powers sit at the leaves, so that no nest of them blows the degree up
POWERS = st.one_of(
    st.builds("({} {} {})^{}".format, LEAVES, st.sampled_from("+-"), LEAVES,
              st.integers(0, 3)),
    st.builds("({})^{}".format, MONOMIALS, st.integers(-2, -1)))
RELATIONS = st.recursive(
    st.one_of(LEAVES, POWERS),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("-{}".format, inner),
        st.builds("{} / ({})".format, inner, MONOMIALS)),
    max_leaves=6)
POINTS = st.builds(Fraction, NONZERO, st.integers(1, 7))


def fraction_value(text: str, p: Fraction, q: Fraction) -> Fraction:
    python = re.sub(r"[0-9]+", r"F(\g<0>)", text.replace("^", "**"))
    return eval(python, {"__builtins__": {}, "F": Fraction, "P": p, "Q": q})


def power_of_two(x: Fraction) -> int:
    e = x.numerator.bit_length() - 1 if x >= 1 else 1 - x.denominator.bit_length()
    assert x == Fraction(2) ** e
    return e


@settings(max_examples=60, deadline=None)
@given(RELATIONS, POINTS, POINTS, st.lists(st.tuples(POINTS, POINTS), min_size=3, max_size=3))
def test_cleared_relation_is_the_value_times_one_monomial(text, p, q, others):
    try:
        cleared = parse_relation(text)
    except RelationError as exc:
        assert "single monomial" in str(exc) or "identically zero" in str(exc)
        if "identically zero" in str(exc):
            assert all(fraction_value(text, x, y) == 0 for x, y in [(p, q), *others])
        return

    def ratio(x, y):
        value = fraction_value(text, x, y)
        assume(value != 0)
        return Fraction(cleared_value(x, y)) / value

    def cleared_value(x, y):
        return sum(c * x ** i * y ** j for (i, j), c in cleared.terms.items())

    base = ratio(p, q)
    a = power_of_two(ratio(2 * p, q) / base)
    b = power_of_two(ratio(p, 2 * q) / base)
    c = base / (p ** a * q ** b)
    for x, y in others:
        assert cleared_value(x, y) == fraction_value(text, x, y) * c * x ** a * y ** b
