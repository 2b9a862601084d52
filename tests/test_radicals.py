"""Radical grammar, registry parsing, and closed-form verification."""
from __future__ import annotations

from fractions import Fraction

import pytest
from mpmath import mp, workdps

from thetaprod.precision import PrecisionSpec, digits_agreed
from thetaprod.radicals import (
    CorollaryRecord,
    RadicalError,
    eval_radical,
    load_builtin_registry,
    parse_radical,
    parse_registry,
    registry_by_id,
    registry_find,
    verify_corollary,
)

P50 = PrecisionSpec.of(50)


def value_of(text: str, prec: PrecisionSpec = P50):
    return eval_radical(parse_radical(text), prec)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_integer_arithmetic_evaluates_exactly():
    v = value_of("1 + 2*3 - 8/4")
    assert v.magnitude == 5
    # compound ops carry a rounding allowance, far below the 50-digit budget
    assert v.error_bound < mp.mpf("1e-60")


def test_precedence_and_unary_minus():
    assert value_of("-2^2").magnitude == -4
    assert value_of("(1-3)^2").magnitude == 4
    assert value_of("2 - -3").magnitude == 5


def test_sqrt_and_fractional_powers():
    with workdps(P50.working_digits):
        v = value_of("sqrt(2) * 2^(1/2)")
        assert abs(v.magnitude - 2) < mp.mpf("1e-48")
        w = value_of("(sqrt(5)+2)^(1/6) * (sqrt(5)-2)^(1/6)")
        assert abs(w.magnitude - 1) < mp.mpf("1e-48")


def test_bare_exponent_does_not_swallow_division():
    # x^3 / y is division by y, not the exponent 3/y
    assert value_of("2^3/4").magnitude == 2
    assert value_of("2^(3/2)").magnitude == value_of("sqrt(8)").magnitude


def render_radical(node) -> str:
    """A parsed radical back as text, fully parenthesised: the oracle of the
    round-trip test."""
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "neg":
        return f"-{render_radical(node[1])}"
    if kind == "sqrt":
        return f"sqrt({render_radical(node[1])})"
    if kind == "pow":
        e = node[2]
        etext = str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        return f"{render_radical(node[1])}^({etext})"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({render_radical(node[1])} {op} {render_radical(node[2])})"


def test_round_trip_is_stable():
    for text in ("(sqrt(26)+5)^(1/6) * ((sqrt(13)+3)/2)^(1/2)",
                 "1 - 2^(-1/2)",
                 "sqrt(39 + 12*sqrt(10))"):
        node = parse_radical(text)
        assert parse_radical(render_radical(node)) == node


@pytest.mark.parametrize("bad", [
    "",
    "1 +",
    "1+2)",
    "sqrt 5",
    "sqrt(5",
    "2^(1/0)",
    "/2",
    "2^^3",
    "3..5",
])
def test_malformed_text_is_rejected(bad):
    with pytest.raises(RadicalError):
        parse_radical(bad)


def test_error_carries_column_position():
    with pytest.raises(RadicalError, match="column 5"):
        parse_radical("1 + *2")


def test_negative_domain_errors_at_eval():
    with pytest.raises(ValueError, match="negative"):
        value_of("sqrt(1-2)")
    with pytest.raises(ValueError, match="nonpositive"):
        value_of("(1-2)^(1/2)")
    with pytest.raises(ValueError, match="nonpositive"):
        value_of("(2-2)^(1/3)")


# ---------------------------------------------------------------------------
# registry parsing
# ---------------------------------------------------------------------------

def test_parse_registry_basic():
    recs = parse_registry("""
# commentary
g 30 = (sqrt(5)+2)^(1/6) * (sqrt(10)+3)^(1/6)   # Berndt, Ramanujan's Notebooks V, p. 200
gg 6 2/3 = 1                                    # Yi, Corollary 2.2.4
""")
    assert [r.kind for r in recs] == ["g", "gg"]
    assert recs[0].params == (Fraction(30),)
    assert recs[1].params == (Fraction(6), Fraction(2, 3))
    assert recs[0].source.startswith("Berndt")
    assert recs[0].label == "g(30)"


@pytest.mark.parametrize("line,fragment", [
    ("g 30 = 1", "source"),
    ("q 30 = 1 # t", "unknown entry kind"),
    ("g 30 7 = 1 # t", "takes 1 parameter"),
    ("a 4 = 1 # t", "takes 2 parameter"),
    ("a x 3 = 1 # t", "malformed rational"),
    ("a 0 3 = 1 # t", "positive"),
    ("a -2 3 = 1 # t", "positive"),
    ("g 30  1 # t", "expected '='"),
    ("g 30 = sqrt( # t", "line 1"),
])
def test_parse_registry_rejects(line, fragment):
    with pytest.raises(RadicalError, match=fragment):
        parse_registry(line)


def test_parse_registry_rejects_duplicates():
    text = "g 5 = 1 # t\ng 5 = 2 # t\n"
    with pytest.raises(RadicalError, match="duplicate"):
        parse_registry(text)


def test_registry_find():
    recs = load_builtin_registry()
    assert registry_find(recs, "g", 30) is not None
    assert registry_find(recs, "g", Fraction(10, 3)) is not None
    assert registry_find(recs, "a", 26, 5) is not None
    assert registry_find(recs, "g", 31) is None
    assert registry_find(recs, "gg", 5, 7) is None


def test_registry_ids_round_trip():
    recs = load_builtin_registry()
    assert all(registry_by_id(recs, rec.id) is rec for rec in recs)
    assert registry_find(recs, "a", 2, 3).id == "a_2_3"
    assert registry_find(recs, "g", Fraction(10, 3)).id == "g_10/3"
    assert registry_find(recs, "gg", 6, Fraction(2, 3)).id == "gg_6_2/3"


def test_registry_by_id_reads_rational_parameters():
    recs = load_builtin_registry()
    assert registry_by_id(recs, "a_4/2_3").id == "a_2_3"
    assert registry_by_id(recs, "g_20/6").id == "g_10/3"


@pytest.mark.parametrize("text", ["a__3", "x_1", "a_1_2_3", "a", "a_1/0_3",
                                  "g_30_1", "a_99_3"])
def test_registry_by_id_rejects_unknown_ids(text):
    recs = load_builtin_registry()
    with pytest.raises(KeyError) as info:
        registry_by_id(recs, text)
    message = info.value.args[0]
    assert message.startswith(f"unknown id {text!r}; known ids: ")
    assert message.split("known ids: ")[1].split(", ") == [r.id for r in recs]


def test_registry_by_id_searches_and_lists_only_the_given_kinds():
    recs = load_builtin_registry()
    assert registry_by_id(recs, "b_40_3", ("a", "b")).id == "b_40_3"
    with pytest.raises(KeyError) as info:
        registry_by_id(recs, "g_30", ("a", "b"))
    known = info.value.args[0].split("known ids: ")[1].split(", ")
    assert known == [r.id for r in recs if r.kind in ("a", "b")]


def test_builtin_registry_shape():
    recs = load_builtin_registry()
    by_kind = {}
    for rec in recs:
        by_kind.setdefault(rec.kind, []).append(rec)
    assert len(by_kind["g"]) == 4
    assert len(by_kind["gg"]) == 2
    assert len(by_kind["a"]) == 21
    assert len(by_kind["b"]) == 2
    assert all(rec.source for rec in recs)
    degree3 = [rec for rec in by_kind["a"] if rec.params[1] == 3]
    assert sorted(rec.params[0] for rec in degree3) == [2, 4, 6, 8, 10, 14, 26, 34]


# ---------------------------------------------------------------------------
# corollary verification
# ---------------------------------------------------------------------------

def test_verify_corollary_passes_for_product_entries():
    recs = load_builtin_registry()
    for key in (("a", (2, 3)), ("a", (26, 5)), ("b", (40, 3))):
        rec = registry_find(recs, key[0], *key[1])
        chk = verify_corollary(rec, P50)
        assert chk.passed, rec.label
        assert chk.digits >= 50


def test_verify_corollary_detects_wrong_closed_form():
    recs = load_builtin_registry()
    rec = registry_find(recs, "a", 26, 5)
    wrong_text = rec.expr_text.replace(")^3", ")^2")
    assert wrong_text != rec.expr_text
    wrong = CorollaryRecord(rec.kind, rec.params, wrong_text,
                            parse_radical(wrong_text), rec.source)
    chk = verify_corollary(wrong, P50)
    assert not chk.passed
    assert chk.digits < 10


def test_nested_surd_denesting():
    with workdps(80):
        lhs = value_of("sqrt(39 + 12*sqrt(10))", PrecisionSpec.of(70))
        rhs = value_of("sqrt(15) + 2*sqrt(6)", PrecisionSpec.of(70))
        assert digits_agreed(lhs.magnitude, rhs.magnitude) >= 70
