"""Class invariants: direct evaluation, registry lookups, companion solving."""
from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp, workdps

from thetaprod.blocks import eval_block, nome
from thetaprod.invariants import (
    G_numeric,
    RootSelectionError,
    _COMPANION_RELATIONS,
    g_numeric,
    quad4_36_value,
    registry_lookup,
    solve_companion,
)
from thetaprod.precision import PrecisionSpec, RealValue, digits_agreed
from thetaprod.radicals import eval_radical

P60 = PrecisionSpec.of(60)


def closed(n) -> RealValue:
    rec = registry_lookup("g", n)
    assert rec is not None
    return eval_radical(rec.expr, P60)


# ---------------------------------------------------------------------------
# direct values
# ---------------------------------------------------------------------------

def test_g1_and_G1_classical_values():
    # G(1) = 1 and g(1) = 2^(-1/8); g(4) = 2^(1/4) g(1) G(1) then gives 2^(1/8)
    with workdps(P60.working_digits):
        assert abs(G_numeric(1, P60).value.magnitude - 1) < mp.mpf("1e-58")
        g1 = g_numeric(1, P60).value.magnitude
        assert abs(g1 - mp.mpf(2) ** (mp.mpf(-1) / 8)) < mp.mpf("1e-58")
        g4 = g_numeric(4, P60).value.magnitude
        assert abs(g4 - mp.mpf(2) ** (mp.mpf(1) / 8)) < mp.mpf("1e-58")


@pytest.mark.parametrize("n", [30, 78, Fraction(10, 3), Fraction(6, 13)])
def test_g_matches_registry_closed_form(n):
    with workdps(P60.working_digits):
        inv = g_numeric(n, P60)
        assert digits_agreed(inv.value.magnitude, closed(n).magnitude) >= 60


def test_G_times_g_cubed_relation():
    # (g G)^8 (G^8 - g^8) = 1/4 for every n; check at n = 5
    with workdps(P60.working_digits):
        g = g_numeric(5, P60).value
        G = G_numeric(5, P60).value
        lhs = (g * G).powi(8) * (G.powi(8) - g.powi(8))
        assert abs(lhs.magnitude - mp.mpf(1) / 4) < mp.mpf("1e-55")


def test_small_g_is_certified_to_significant_digits():
    # g(1/30000) is about 2.4e-20, so an absolute budget of 10^-50 would
    # certify only about 30 of its digits; the budget is relative to |g|
    spec = PrecisionSpec.of(50)
    value = g_numeric(Fraction(1, 30000), spec).value
    with workdps(100):
        q = mp.exp(-mp.pi / mp.sqrt(30000))
        # chi(-q) = (q; q^2)_infinity
        want = mp.mpf(2) ** (mp.mpf(-1) / 4) * q ** (mp.mpf(-1) / 24) * mp.qp(q, q * q)
        assert abs(value.magnitude - want) <= value.error_bound
        assert abs(value.magnitude - want) <= mp.mpf(10) ** -50 * want
    assert value.meets(spec)


@pytest.mark.parametrize("n", [5, Fraction(1, 30000)])
def test_G_matches_the_product_formula(n):
    n, spec = Fraction(n), PrecisionSpec.of(50)
    value = G_numeric(n, spec).value
    with workdps(100):
        q = mp.exp(-mp.pi * mp.sqrt(mp.mpf(n.numerator) / n.denominator))
        # chi(q) = (-q; q^2)_infinity
        want = mp.mpf(2) ** (mp.mpf(-1) / 4) * q ** (mp.mpf(-1) / 24) * mp.qp(-q, q * q)
        assert abs(value.magnitude - want) <= value.error_bound
    assert value.meets(spec)


@pytest.mark.parametrize("n", [7, Fraction(1, 3)])
def test_weber_duplication(n):
    # g(4n) = 2^(1/4) g(n) G(n), with the balls overlapping
    with workdps(P60.working_digits):
        lhs = g_numeric(4 * n, P60).value
        rhs = (RealValue.exact(2).powf(Fraction(1, 4))
               * g_numeric(n, P60).value * G_numeric(n, P60).value)
        assert abs(lhs.magnitude - rhs.magnitude) <= lhs.error_bound + rhs.error_bound


def test_invariant_value_fields():
    inv = g_numeric(30, P60)
    assert inv.kind == "g"
    assert inv.n == 30
    assert inv.value.meets(P60)


def test_invariant_runs_in_one_precision_context(monkeypatch):
    # the nome and the block are built inside the invariant's own
    # compute_checked, so an escalation of it also widens them
    def refuse(spec, builder):
        raise AssertionError("nested compute_checked")
    monkeypatch.setattr("thetaprod.blocks.compute_checked", refuse)
    assert g_numeric(30, P60).value.meets(P60)
    assert G_numeric(5, P60).value.meets(P60)


def test_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        g_numeric(0, P60)
    with pytest.raises(ValueError):
        G_numeric(-3, P60)


# ---------------------------------------------------------------------------
# registry lookup
# ---------------------------------------------------------------------------

def test_lookup_g_hit_and_miss():
    assert registry_lookup("g", 30) is not None
    assert registry_lookup("g", Fraction(6, 13)) is not None
    assert registry_lookup("g", 11) is None


def test_lookup_G_always_misses():
    assert registry_lookup("G", 30) is None
    assert registry_lookup("G", 5) is None


def test_lookup_rejects_other_kinds():
    with pytest.raises(ValueError):
        registry_lookup("a", 2)


# ---------------------------------------------------------------------------
# companion relations
# ---------------------------------------------------------------------------

def test_triple3_reproduces_g_10_3():
    with workdps(P60.working_digits):
        known = g_numeric(30, P60).value
        got = solve_companion("triple3", known, 10, P60)
        assert digits_agreed(got.magnitude, closed(Fraction(10, 3)).magnitude) >= 60


def test_deg13_reproduces_g_6_13():
    with workdps(P60.working_digits):
        known = g_numeric(78, P60).value
        got = solve_companion("deg13", known, 6, P60)
        assert digits_agreed(got.magnitude, closed(Fraction(6, 13)).magnitude) >= 60


def test_quad4_36_closed_form_step():
    # at n = 2/3 the input product g(2/3) g(6) is exactly 1, so the output
    # product g(8/3) g(24) must equal sqrt(1 + sqrt(3))
    with workdps(P60.working_digits):
        a = g_numeric(Fraction(2, 3), P60).value * g_numeric(6, P60).value
        b = quad4_36_value(a)
        want = mp.sqrt(1 + mp.sqrt(3))
        assert digits_agreed(b.magnitude, want) >= 60
        direct = g_numeric(Fraction(8, 3), P60).value * g_numeric(24, P60).value
        assert digits_agreed(b.magnitude, direct.magnitude) >= 60


def test_triple3_at_n_3_recovers_g1():
    # known g(9), target leg g(1) = 2^(-1/8)
    with workdps(P60.working_digits):
        known = g_numeric(9, P60).value
        got = solve_companion("triple3", known, 3, P60)
        assert digits_agreed(got.magnitude, g_numeric(1, P60).value.magnitude) >= 58


def test_companion_rejects_unknown_relation():
    with pytest.raises(ValueError, match="unknown companion relation"):
        solve_companion("quintic", RealValue.exact(1), 5, P60)


def test_companion_rejects_bad_parameter():
    with pytest.raises(ValueError):
        solve_companion("triple3", RealValue.exact(1), 0, P60)


def test_root_selection_rejects_wrong_known_leg():
    # feeding a wildly wrong "known" value moves the root far from the
    # bootstrap, which must be reported rather than silently accepted
    with pytest.raises((RootSelectionError, ArithmeticError)):
        solve_companion("triple3", RealValue.exact(50), 10, PrecisionSpec.of(30))


def test_solved_root_satisfies_equation():
    with workdps(P60.working_digits):
        k = g_numeric(30, P60).value.magnitude
        u = solve_companion("triple3", g_numeric(30, P60).value, 10, P60).magnitude
        x3 = (k * u) ** 3
        r6 = (k / u) ** 6
        resid = 2 * mp.sqrt(2) * (x3 + 1 / x3) - (r6 - 1 / r6)
        assert abs(resid) < mp.mpf("1e-55")


@pytest.mark.parametrize("relation,known_n,n", [("triple3", 30, 10), ("deg13", 78, 6)])
def test_companion_ball_holds_the_root_at_both_ends_of_the_known_ball(relation, known_n, n):
    # a known leg 10^-45 wide moves the root measurably; the returned ball
    # must hold the root found at twice the digits with k at either end
    spec = PrecisionSpec.of(40)
    with workdps(spec.working_digits):
        k = g_numeric(known_n, spec).value.magnitude
        known = RealValue(k, k * mp.mpf(10) ** -45)
    got = solve_companion(relation, known, n, spec)
    _, equation = _COMPANION_RELATIONS[relation]
    with workdps(2 * spec.working_digits):
        roots = [mp.findroot(lambda u: equation(RealValue.exact(u), RealValue.exact(end)).magnitude,
                             got.magnitude)
                 for end in (k - known.error_bound, k + known.error_bound)]
        assert abs(roots[0] - roots[1]) > got.error_bound / 10
        for root in roots:
            assert abs(root - got.magnitude) <= got.error_bound
