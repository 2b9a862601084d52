"""Tests for the dual verification engine."""
from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workdps

from thetaprod import blocks
from thetaprod.catalogue import find_record, load_builtin, parse_catalogue
from thetaprod.precision import PrecisionSpec, RealValue
from thetaprod.blocks import nome, quotient_value
from thetaprod.quotient import EtaQuotient
from thetaprod.relation import Poly2
from thetaprod.series import PowerSeries, SeriesCheck, mul, scalar_mul
from thetaprod.verify import (Residual, _fixed_powers, _ring, default_probes,
                              default_tolerance, normalized_residual,
                              probe_value, verify_multiplier13,
                              verify_numeric, verify_series)

P50 = PrecisionSpec.of(50)
RECORDS = load_builtin()


def mutated(old: str, new: str):
    text = resources.files("thetaprod").joinpath("data/catalogue.txt").read_text()
    assert old in text, f"mutation anchor {old!r} not found"
    return parse_catalogue(text.replace(old, new, 1))


# ---------------------------------------------------------------------------
# Residual plumbing
# ---------------------------------------------------------------------------

def test_residual_verdict_rule():
    good = Residual.of(RealValue(mpf("1e-60"), mpf("1e-70")), mpf("1e-35"))
    assert good.verdict == "pass" and good.passed
    bad = Residual.of(RealValue(mpf("1e-20"), mpf(0)), mpf("1e-35"))
    assert bad.verdict == "fail" and not bad.passed


def test_default_tolerance_tracks_target():
    assert default_tolerance(PrecisionSpec.of(100)) == mpf(10) ** -85
    assert default_tolerance(P50) == mpf(10) ** -35


def test_probe_value_accepts_text_fraction_and_realvalue():
    a = probe_value("1/10", P50)
    b = probe_value(Fraction(1, 10), P50)
    assert a.magnitude == b.magnitude
    rv = RealValue.exact(1)
    assert probe_value(rv, P50) is rv


def test_default_probes_shape():
    rec = find_record(RECORDS, "gq13")
    probes = default_probes(rec, P50)
    assert len(probes) == 5
    labels = [label for label, _ in probes]
    assert "q=0.01" in labels and "q=nome(1,13)" in labels
    with workdps(70):
        expected = mp.exp(-mp.pi / mp.sqrt(13))
        got = dict(probes)["q=nome(1,13)"].magnitude
        assert abs(got - expected) < mpf(10) ** -45


# ---------------------------------------------------------------------------
# verify_numeric
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rid", ["e24", "dup5", "gq43", "quad5"])
def test_numeric_passes_on_probes(rid):
    rec = find_record(RECORDS, rid)
    for q in ("1/10", "1/20"):
        res = verify_numeric(rec, q, P50)
        assert res.passed, f"{rid} at q={q}: residual {res.value}"
        assert abs(res.value.magnitude) < res.tolerance * mpf("1e-5")


def test_numeric_at_natural_nome():
    rec = find_record(RECORDS, "dup13")
    label, q = default_probes(rec, P50)[-1]
    assert label == "q=nome(1,13)"
    assert verify_numeric(rec, q, P50).passed


def test_numeric_preconditions():
    rec = find_record(RECORDS, "dup3")
    with pytest.raises(ValueError, match=">= 40"):
        verify_numeric(rec, "1/10", PrecisionSpec(30, 15))
    with pytest.raises(ValueError, match="0 < q < 1"):
        verify_numeric(rec, Fraction(3, 2), P50)


def test_numeric_detects_wrong_constant():
    (bad,) = [r for r in mutated("P*Q + 9/(P*Q)", "P*Q + 8/(P*Q)")
              if r.id == "dup3"]
    res = verify_numeric(bad, "1/10", P50)
    assert not res.passed
    assert abs(res.value.magnitude) > mpf("1e-6")


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: r.id)
def test_numeric_power_tables_match_per_monomial_powers(rec):
    prec = PrecisionSpec.of(300)
    q = probe_value("1/10", prec)
    res = verify_numeric(rec, q, prec)
    assert res.passed
    # the same residual with each P^i Q^j raised on its own by powi; both
    # enclose the true residual 0
    with workdps(prec.working_digits):
        p, qq = quotient_value(rec.p_expr, q), quotient_value(rec.q_expr, q)
        old = normalized_residual(
            [RealValue.from_fraction(c) * p.powi(i) * qq.powi(j)
             for (i, j), c in sorted(rec.relation_poly.terms.items())])
    assert abs(res.value.magnitude - old.magnitude) <= (
        res.value.error_bound + old.error_bound)


def test_numeric_sums_each_distinct_block_once(monkeypatch):
    calls = []
    real = blocks._sum_block
    monkeypatch.setattr(blocks, "_sum_block",
                        lambda kind, x: calls.append(kind) or real(kind, x))
    counts = {}
    for rec in RECORDS:
        before = len(calls)
        assert verify_numeric(rec, "1/10", P50).passed
        counts[rec.id] = len(calls) - before
        assert counts[rec.id] == len({(f.k, f.kind) for expr in (rec.p_expr, rec.q_expr)
                                      for f in expr.factors})
    assert counts["bal3"] == 6
    assert sum(counts.values()) == 100


@pytest.mark.parametrize("used", [[1, 2, 5], [4, 8, 48], [2, 24], [3, 12]])
def test_fixed_powers_are_short_by_less_than_3k_units(used):
    # T_k = x^k in units of 2^-wp from flooring products, x = X 2^-wp in
    # [1/2, 1): X^k 2^(-(k-1) wp) - 3k < T_k <= X^k 2^(-(k-1) wp).  The
    # residual's rounding allowance covers far more, so only this test sees
    # a table formed a few bits too narrow
    rng = random.Random(sum(used))
    wp = 300
    for _ in range(5):
        x = rng.randrange(1 << (wp - 1), 1 << wp)
        table = _fixed_powers(x, used, wp)
        assert table[0] == 1 << wp
        assert sorted(table) == list(range(0, max(used) + 1, gcd(*used)))
        for k in table.keys() - {0}:
            scale = (k - 1) * wp
            assert table[k] << scale <= x ** k < (table[k] + 3 * k) << scale


def oracle_residual(rec, q: RealValue) -> RealValue:
    """The normalized residual by RealValue arithmetic at the current
    mp.dps: each P^i and Q^j from the one before, each monomial a product
    of balls."""
    monomials = sorted(rec.relation_poly.terms.items())
    p_pows = [RealValue.exact(1), quotient_value(rec.p_expr, q)]
    q_pows = [RealValue.exact(1), quotient_value(rec.q_expr, q)]
    for pows, top in ((p_pows, max(i for (i, _), _ in monomials)),
                      (q_pows, max(j for (_, j), _ in monomials))):
        while len(pows) <= top:
            pows.append(pows[-1] * pows[1])
    terms = []
    for (i, j), c in monomials:
        term = RealValue.from_fraction(c)
        if i:
            term = term * p_pows[i]
        if j:
            term = term * q_pows[j]
        terms.append(term)
    return normalized_residual(terms)


def mpmath_quotient(expr, q):
    """An eta quotient from mpmath's q-Pochhammer symbol: f(-x) = (x; x),
    f(x) = (-x; -x)."""
    out = q ** (mpf(expr.q_power.numerator) / expr.q_power.denominator)
    for f in expr.factors:
        x = q ** f.k
        out *= (mp.qp(x) if f.kind == "f_minus" else mp.qp(-x, -x)) ** f.exponent
    return out


def mpmath_residual(rec, q) -> mpf:
    p, qq = mpmath_quotient(rec.p_expr, q), mpmath_quotient(rec.q_expr, q)
    terms = [mpf(c.numerator) / c.denominator * p ** i * qq ** j
             for (i, j), c in rec.relation_poly.terms.items()]
    return abs(mp.fsum(terms)) / max(abs(t) for t in terms)


@pytest.mark.parametrize("digits,examples", [(40, 40), (300, 12), (1000, 5)])
def test_fixed_point_residual_matches_ball_oracle_and_mpmath(digits, examples):
    # a true relation, or one with a coefficient moved so that the residual
    # is far from 0; the probe is a rational or the record's natural nome,
    # a ball with a nonzero radius
    prec = PrecisionSpec.of(digits)

    @settings(max_examples=examples, deadline=None, database=None, derandomize=True)
    @given(rec=st.sampled_from(RECORDS), num=st.integers(1, 24),
           at_nome=st.booleans(), move=st.sampled_from([0, 1, Fraction(-3, 7)]),
           which=st.integers(0, 40))
    def check(rec, num, at_nome, move, which):
        if move:
            terms = dict(rec.relation_poly.terms)
            key = sorted(terms)[which % len(terms)]
            terms[key] += move
            rec = with_terms(rec, {k: c for k, c in terms.items() if c})
        if at_nome:
            idx = rec.natural_nome_index()
            q = nome(1, idx, prec).q
            assert q.error_bound > 0
        else:
            q = probe_value(Fraction(num, 100), prec)
        got = verify_numeric(rec, q, prec).value
        with workdps(prec.working_digits):
            old = oracle_residual(rec, q)
        assert abs(got.magnitude - old.magnitude) <= got.error_bound + old.error_bound
        with workdps(prec.working_digits + 50):
            point = mp.exp(-mp.pi / mp.sqrt(idx)) if at_nome else mpf(num) / 100
            want = mpmath_residual(rec, point)
            for ball in (got, old):
                assert abs(ball.magnitude - want) <= ball.error_bound

    check()


# ---------------------------------------------------------------------------
# verify_series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rid", ["e24", "dup3", "gq5", "bal7", "rec5"])
def test_series_passes_to_moderate_order(rid):
    rec = find_record(RECORDS, rid)
    check = verify_series(rec, 24 * 20)
    assert check.ok, f"{rid}: first failure at {check.first_failure}"
    assert check.first_failure is None


def test_series_order_precondition():
    with pytest.raises(ValueError, match=">= 24"):
        verify_series(find_record(RECORDS, "e24"), 23)


def test_series_detects_wrong_constant():
    (bad,) = [r for r in mutated("P*Q + 9/(P*Q)", "P*Q + 8/(P*Q)")
              if r.id == "dup3"]
    check = verify_series(bad, 24 * 10)
    assert not check.ok
    assert check.first_failure is not None


def test_series_detects_perturbed_large_coefficient():
    (bad,) = [r for r in mutated("829*(P/Q + Q/P)^4", "830*(P/Q + Q/P)^4")
              if r.id == "quad13"]
    check = verify_series(bad, 24 * 6)
    assert not check.ok
    res = verify_numeric(bad, "1/10", P50)
    assert not res.passed


def test_relation_scaling_does_not_change_poly():
    base = find_record(RECORDS, "dup5")
    scaled = parse_catalogue(
        'identity x { P = q^(-1/6) * f(1) * f(5)^-1 ; '
        'Q = q^(-1/3) * f(2) * f(10)^-1 ; '
        'relation: 3*(P*Q + 5/(P*Q) - ((P/Q)^3 + (Q/P)^3)) ; '
        'source: "scaling probe" ; }')[0]
    assert scaled.relation_poly == base.relation_poly
    assert verify_series(scaled, 24 * 8).ok


def test_dual_agreement_smoke():
    # exact pass must be accompanied by numeric pass on probes
    for rid in ("dup7", "quad3"):
        rec = find_record(RECORDS, rid)
        assert verify_series(rec, 24 * 10).ok
        for q in ("1/20", "1/5"):
            assert verify_numeric(rec, q, P50).passed


# ---------------------------------------------------------------------------
# verify_series against the dict-based reference
# ---------------------------------------------------------------------------

def reference_terms(rec, order: int) -> list[tuple[Fraction, PowerSeries]]:
    """Each monomial's coefficient c and P^i Q^j, by sparse-series
    arithmetic, with P and Q built to the orders verify_series uses."""
    lp = rec.p_expr.lattice_shift
    lq = rec.q_expr.lattice_shift
    monomials = sorted(rec.relation_poly.terms.items())
    need_p = [order - (i - 1) * lp - j * lq for (i, j), _ in monomials if i >= 1]
    need_q = [order - (j - 1) * lq - i * lp for (i, j), _ in monomials if j >= 1]

    def powers(expr, need, top):
        table = {0: PowerSeries.one(order)}
        if need:
            base = expr.to_series(max(need))
            table[1] = base
            for k in range(2, top + 1):
                table[k] = mul(table[k - 1], base)
        return table

    p_pows = powers(rec.p_expr, need_p, max(i for (i, _), _ in monomials))
    q_pows = powers(rec.q_expr, need_q, max(j for (_, j), _ in monomials))
    terms = []
    for (i, j), c in monomials:
        if i and j:
            term = mul(p_pows[i], q_pows[j])
        else:
            term = p_pows[i] if i else q_pows[j]
        terms.append((c, term))
    return terms


def reference_series(rec, order: int) -> SeriesCheck:
    acc = PowerSeries.zero(order)
    for c, term in reference_terms(rec, order):
        acc = acc + scalar_mul(c, term)
    assert acc.order >= order
    bad = [e for e, c in acc.coeffs.items() if c and e <= order]
    return SeriesCheck(False, min(bad)) if bad else SeriesCheck(True, None)


def with_terms(rec, terms):
    return replace(rec, relation_poly=Poly2(terms))


def scaled(rec, factor: Fraction):
    return with_terms(rec, {m: factor * c for m, c in rec.relation_poly.terms.items()})


ORACLE_ORDERS = (24, 48, 240, 720)
(DUP3_WRONG_CONSTANT,) = [r for r in mutated("P*Q + 9/(P*Q)", "P*Q + 8/(P*Q)")
                          if r.id == "dup3"]
MUTANTS = {
    "dup3-wrong-constant": DUP3_WRONG_CONSTANT,
    "quad13-830": next(r for r in mutated("829*(P/Q + Q/P)^4", "830*(P/Q + Q/P)^4")
                       if r.id == "quad13"),
    # rational relation coefficients with denominators 2, 3 and 6
    "dup3-sixth": scaled(find_record(RECORDS, "dup3"), Fraction(1, 6)),
    "dup3-wrong-constant-sixth": scaled(DUP3_WRONG_CONSTANT, Fraction(1, 6)),
}


@pytest.mark.parametrize("rec", list(RECORDS) + list(MUTANTS.values()),
                         ids=[r.id for r in RECORDS] + list(MUTANTS))
def test_series_matches_reference_oracle(rec):
    for order in ORACLE_ORDERS:
        assert verify_series(rec, order) == reference_series(rec, order), order


def test_series_reads_a_residual_at_the_edge_of_its_slot():
    # adding 2^k * P^i Q^j leaves the residual 2^k at the monomial's shift,
    # and when that term is the widest the slot width W is only a few bits
    # above k: a slot even a byte narrower than the bound would move the
    # lowest set bit into a later slot, or past the mask when the shift is
    # the last slot (rec13's Q at order 24)
    tight = 0
    for rid, monomial, exponent in (("dup3", (0, 0), 0), ("rec13", (0, 1), 24)):
        base = find_record(RECORDS, rid)
        for k in range(120, 128):
            bad = with_terms(base, {**base.relation_poly.terms, monomial: Fraction(2 ** k)})
            for order in (24, 240):
                expected = SeriesCheck(False, exponent)
                assert reference_series(bad, order) == expected
                assert verify_series(bad, order) == expected, (rid, k, order)
                tight += 8 * _ring(bad, order).width - 8 <= k
    assert tight


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: r.id)
def test_slot_width_bounds_every_monomial_coefficient(rec):
    for order in (240, 2400):
        largest = max(abs(c * v) for c, term in reference_terms(rec, order)
                      for e, v in term.coeffs.items() if e <= order)
        assert largest.denominator == 1
        assert 8 * _ring(rec, order).width > largest.numerator.bit_length(), order


def test_series_rejects_a_non_integral_quotient_coefficient(monkeypatch):
    to_series = EtaQuotient.to_series
    monkeypatch.setattr(EtaQuotient, "to_series",
                        lambda self, order: scalar_mul(Fraction(1, 2), to_series(self, order)))
    with pytest.raises(ValueError, match="not an integer"):
        verify_series(find_record(RECORDS, "dup3"), 48)


# ---------------------------------------------------------------------------
# the multiplier system
# ---------------------------------------------------------------------------

def test_multiplier13_at_small_q():
    res = verify_multiplier13("1/20", PrecisionSpec.of(80))
    assert res.passed
    assert abs(res.value.magnitude) < mpf(10) ** -70


def test_multiplier13_rejects_bad_probe():
    with pytest.raises(ValueError):
        verify_multiplier13(Fraction(2), PrecisionSpec.of(80))
