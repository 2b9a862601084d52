"""Tests for the catalogue format and the shipped record set."""
from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp, workdps

from thetaprod.catalogue import (CatalogueError, IdentityRecord, find_record,
                                 load_builtin, parse_catalogue)
from thetaprod.quotient import EtaQuotient
from thetaprod.verify import verify_series

EXPECTED_IDS = {"e24", "dup3", "dup5", "dup7", "dup13",
                "gq3", "gq5", "gq7", "gq13", "gq43",
                "bal3", "bal5", "bal7", "rec5", "rec7", "rec13",
                "quad3", "quad5", "quad7", "quad13"}

SAMPLE = """
identity dup3 {
  P = q^(-1/6) * f(1)^2 * f(3)^-2 ;
  Q = q^(-1/3) * f(2)^2 * f(6)^-2 ;
  relation: P*Q + 9/(P*Q) - ((P/Q)^3 + (Q/P)^3) ;
  source: "Berndt, Ramanujan's Notebooks IV, Entry 51, p. 204" ;
}
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_empty_input_gives_empty_catalogue():
    assert parse_catalogue("") == []
    assert parse_catalogue("  \n # just a comment\n") == []


def test_sample_record_structure():
    (rec,) = parse_catalogue(SAMPLE)
    assert rec.id == "dup3"
    assert rec.p_expr == EtaQuotient.of(Fraction(-1, 6),
                                        [(1, "f_minus", 2), (3, "f_minus", -2)])
    assert rec.q_expr.q_power == Fraction(-1, 3)
    assert rec.relation_text.startswith("P*Q + 9/(P*Q)")
    assert (1, 1) not in rec.relation_poly.terms  # cleared form has no PQ floor
    assert rec.source.startswith("Berndt")
    assert rec.natural_nome_index() == 3


def test_whitespace_insensitive():
    squashed = ('identity dup3 {P=q^(-1/6)*f(1)^2*f(3)^-2;'
                'Q=q^(-1/3)*f(2)^2*f(6)^-2;'
                'relation:P*Q+9/(P*Q)-((P/Q)^3+(Q/P)^3);'
                'source:"Berndt, Ramanujan\'s Notebooks IV, Entry 51, p. 204";}')
    (a,), (b,) = parse_catalogue(squashed), parse_catalogue(SAMPLE)
    # raw relation text keeps its own spacing; everything semantic must agree
    assert (a.id, a.p_expr, a.q_expr, a.relation_poly, a.source) == \
           (b.id, b.p_expr, b.q_expr, b.relation_poly, b.source)


def test_only_f_factors_expand_exactly():
    expr = EtaQuotient.of(Fraction(1, 8), [(1, "f_minus", 1), (2, "phi_plus", -1)])
    with pytest.raises(ValueError, match=r"phi_plus\(2\)"):
        expr.to_series(48)


def test_find_record():
    records = load_builtin()
    assert find_record(records, "quad13").id == "quad13"
    with pytest.raises(KeyError, match="no identity named"):
        find_record(records, "nope")


# ---------------------------------------------------------------------------
# rejection paths
# ---------------------------------------------------------------------------

def rewrite(old: str, new: str) -> str:
    assert old in SAMPLE
    return SAMPLE.replace(old, new)


def test_duplicate_ids_rejected():
    with pytest.raises(CatalogueError, match="duplicate identity id"):
        parse_catalogue(SAMPLE + SAMPLE)


def test_pure_quotient_relation_rejected():
    with pytest.raises(CatalogueError, match="single monomial"):
        parse_catalogue(rewrite("P*Q + 9/(P*Q) - ((P/Q)^3 + (Q/P)^3)", "P/Q"))


def test_unknown_block_name_rejected():
    with pytest.raises(CatalogueError, match="expected q, f, or fp"):
        parse_catalogue(rewrite("f(1)^2", "g(1)^2"))


def test_off_lattice_q_power_rejected():
    with pytest.raises(CatalogueError, match="lattice"):
        parse_catalogue(rewrite("q^(-1/6)", "q^(-1/5)"))


def test_duplicate_factor_rejected():
    with pytest.raises(CatalogueError, match="duplicate factor"):
        parse_catalogue(rewrite("f(1)^2 * f(3)^-2", "f(1)^2 * f(1)^3"))


def test_zero_exponent_rejected():
    with pytest.raises(CatalogueError, match="nonzero"):
        parse_catalogue(rewrite("f(3)^-2", "f(3)^0"))


def test_missing_semicolon_is_positioned():
    broken = rewrite('source: "Berndt', 'source "Berndt')
    with pytest.raises(CatalogueError, match="line 6"):
        parse_catalogue(broken)


def test_relation_syntax_error_mentions_record():
    broken = rewrite("(Q/P)^3", "(Q/P)^")
    with pytest.raises(CatalogueError, match="dup3"):
        parse_catalogue(broken)


def test_unterminated_string():
    broken = rewrite('p. 204" ;', 'p. 204 ;')
    with pytest.raises(CatalogueError, match="unterminated"):
        parse_catalogue(broken)


def test_trailing_garbage_rejected():
    with pytest.raises(CatalogueError, match="expected 'identity'"):
        parse_catalogue(SAMPLE + "\nwhatever")


# ---------------------------------------------------------------------------
# the shipped catalogue
# ---------------------------------------------------------------------------

def test_builtin_catalogue_has_the_full_record_set():
    records = load_builtin()
    assert len(records) == 20
    assert {rec.id for rec in records} == EXPECTED_IDS
    for rec in records:
        assert rec.source.strip()
        assert len(rec.relation_poly.terms) >= 2


def test_builtin_natural_nome_indices():
    records = load_builtin()
    expected = {"e24": 1, "dup3": 3, "gq13": 13, "bal7": 7, "rec5": 5,
                "quad13": 13, "gq43": 3}
    for rid, idx in expected.items():
        assert find_record(records, rid).natural_nome_index() == idx


def brute_quotient(expr: EtaQuotient, q, terms=200):
    """Straight product-formula evaluation, independent of the blocks layer."""
    val = q ** (mp.mpf(expr.q_power.numerator) / expr.q_power.denominator)
    for f in expr.factors:
        x = q ** f.k
        if f.kind == "f_minus":
            block = mp.fprod(1 - x ** n for n in range(1, terms))
        else:
            chi = mp.fprod(1 + x ** (2 * n - 1) for n in range(1, terms))
            block = chi * mp.fprod(1 - x ** (2 * n) for n in range(1, terms))
        val *= block ** f.exponent
    return val


@pytest.mark.parametrize("rid", sorted(EXPECTED_IDS))
def test_builtin_records_vanish_numerically(rid):
    """Transcription guard: every shipped relation vanishes at q = 0.11."""
    rec = find_record(load_builtin(), rid)
    with workdps(60):
        q = mp.mpf(11) / 100
        pval = brute_quotient(rec.p_expr, q)
        qval = brute_quotient(rec.q_expr, q)
        terms = [c.numerator * pval ** i * qval ** j
                 for (i, j), c in rec.relation_poly.terms.items()]
        residual = abs(mp.fsum(terms)) / max(abs(t) for t in terms)
        assert residual < mp.mpf(10) ** -40


@pytest.mark.parametrize("order", [24, 48])
@pytest.mark.parametrize("rid", sorted(EXPECTED_IDS))
def test_builtin_records_pass_series_at_small_orders(rid, order):
    """Orders below a quotient's q-prefix (rec7, rec13) are valid requests."""
    assert verify_series(find_record(load_builtin(), rid), order).ok
