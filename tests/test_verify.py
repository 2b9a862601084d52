"""Tests for the dual verification engine."""
from __future__ import annotations

from fractions import Fraction
from importlib import resources

import pytest
from mpmath import mp, mpf, workdps

from thetaprod.catalogue import find_record, load_builtin, parse_catalogue
from thetaprod.precision import PrecisionSpec, RealValue
from thetaprod.blocks import quotient_value
from thetaprod.verify import (Residual, default_probes, default_tolerance,
                              normalized_residual, probe_value,
                              verify_multiplier13, verify_numeric,
                              verify_series)

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
# the multiplier system
# ---------------------------------------------------------------------------

def test_multiplier13_at_small_q():
    res = verify_multiplier13("1/20", PrecisionSpec.of(80))
    assert res.passed
    assert abs(res.value.magnitude) < mpf(10) ** -70


def test_multiplier13_rejects_bad_probe():
    with pytest.raises(ValueError):
        verify_multiplier13(Fraction(2), PrecisionSpec.of(80))
