"""Lambda construction, quadratic solving, and registry reproduction."""
from __future__ import annotations

from fractions import Fraction
from importlib import resources

import pytest
from mpmath import mp, workdps

from thetaprod import invariants, pipeline, radicals
from thetaprod.catalogue import CatalogueError, find_record, load_builtin, parse_catalogue
from thetaprod.invariants import RootSelectionError
from thetaprod.pipeline import (
    LambdaValue,
    family_for_degree,
    lambda_value,
    reproduce_corollary,
    reproduce_ids,
    solve_pair,
)
from thetaprod.precision import PrecisionSpec, RealValue, digits_agreed
from thetaprod.products import a_numeric, b_numeric
from thetaprod.radicals import (
    CorollaryRecord,
    load_builtin_registry,
    parse_radical,
)

P60 = PrecisionSpec.of(60)


# ---------------------------------------------------------------------------
# lambda
# ---------------------------------------------------------------------------

def test_family_for_degree():
    assert family_for_degree(3) == "n3"
    assert family_for_degree(13) == "n13"
    with pytest.raises(ValueError):
        family_for_degree(11)


def test_lambda_known_values_degree3():
    # m = 2 gives 2 sqrt(2), m = 4 gives 4 sqrt(2)
    with workdps(P60.working_digits):
        l2 = lambda_value("n3", 2)
        assert abs(l2.value.magnitude - 2 * mp.sqrt(2)) < mp.mpf("1e-58")
        assert l2.construction == "registry product gg(6,2/3)"
        l4 = lambda_value("n3", 4)
        assert abs(l4.value.magnitude - 4 * mp.sqrt(2)) < mp.mpf("1e-58")
        assert l4.construction == "registry product gg(12,4/3)"


def test_lambda_construction_chain():
    with workdps(P60.working_digits):
        lam = lambda_value("n3", 8)
        assert lam.construction.startswith("quad4_36 step on registry product")
        lam = lambda_value("n3", 10)
        assert lam.construction == "registry invariants g(30) * g(10/3)"
        lam = lambda_value("n13", 6)
        assert lam.construction == "registry invariants g(78) / g(6/13)"
        lam = lambda_value("n3", 6)
        assert lam.construction.startswith("numeric invariants")


def test_lambda_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown family"):
        lambda_value("n11", 2)
    with pytest.raises(ValueError, match="positive"):
        lambda_value("n3", 0)
    with pytest.raises(ValueError, match="unknown family"):
        solve_pair("n11", 2, P60)


def test_lambda_meets_requested_precision():
    with workdps(P60.working_digits):
        lam = lambda_value("n5", 6)
    assert lam.value.meets(P60)
    assert lam.m == Fraction(6)
    assert lam.family == "n5"


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def solved_matches_definitional(family, degree, m, prec=P60):
    pair = solve_pair(family, m, prec)
    a_ref = a_numeric(m, degree, prec).value
    b_ref = b_numeric(4 * m, degree, prec).value
    with workdps(prec.working_digits):
        assert digits_agreed(pair.a_value.magnitude, a_ref.magnitude) >= prec.target_digits
        assert digits_agreed(pair.b_value.magnitude, b_ref.magnitude) >= prec.target_digits
        ratio = pair.a_value.magnitude / pair.b_value.magnitude
        assert digits_agreed(pair.ratio.magnitude, ratio) >= prec.target_digits - 2
    assert pair.passed
    return pair


@pytest.mark.parametrize("family,degree,m", [
    ("n3", 3, 2),
    ("n3", 3, 10),
    ("n5", 5, 6),
    ("n7", 7, 4),
    ("n13", 13, 6),
])
def test_solve_recovers_both_products(family, degree, m):
    solved_matches_definitional(family, degree, m)


def test_solve_handles_degenerate_double_root():
    # degree 5 at m = 2: both quadratics collapse to double roots, whose
    # interval halves the digits; the one attempt is sized for that
    pair = solved_matches_definitional("n5", 5, 2)
    assert all(r.passed for r in pair.residuals)


@pytest.mark.parametrize("family,m,double", [("n5", 2, True), ("n7", 2, True),
                                             ("n5", 6, False), ("n3", 2, False)])
def test_solve_sizes_a_double_root_from_the_bootstrap(monkeypatch, family, m, double):
    # the 20-digit bootstrap sees an unresolved discriminant, so solve_pair's
    # own compute_checked starts at 2 target + guard digits and never retries;
    # a simple root keeps the usual target + guard
    calls = []
    checked = pipeline.compute_checked

    def counted(spec, builder):
        calls.append([])

        def attempt():
            calls[-1].append(mp.dps)
            return builder()
        return checked(spec, attempt)
    monkeypatch.setattr(pipeline, "compute_checked", counted)
    solve_pair(family, m, P60)
    target = P60.target_digits + 12
    assert calls[-1] == [2 * target + P60.guard_digits if double
                         else target + P60.guard_digits]


def test_solve_detects_wrong_lambda(monkeypatch):
    for family, m, wrong in (("n3", 2, 3), ("n5", 6, 7)):
        bogus = LambdaValue(family, Fraction(m), RealValue.exact(wrong), "test")
        monkeypatch.setattr(pipeline, "lambda_value", lambda *args, bogus=bogus: bogus)
        with pytest.raises(RootSelectionError):
            solve_pair(family, m, PrecisionSpec.of(40))


@pytest.mark.parametrize("family,m,construction", [
    ("n3", 6, "numeric invariants"),
    ("n3", 8, "quad4_36 step on registry product"),
    ("n13", 6, "registry invariants"),
])
def test_solve_runs_in_one_precision_loop(monkeypatch, family, m, construction):
    # lambda's legs are built inside solve_pair's own loop, never in a
    # checked evaluation of their own
    def refuse(*args):
        raise AssertionError("nested compute_checked")
    monkeypatch.setattr(invariants, "compute_checked", refuse)
    monkeypatch.setattr(radicals, "compute_checked", refuse)
    pair = solve_pair(family, m, P60)
    assert pair.passed and pair.lam.construction.startswith(construction)
    assert pair.a_value.meets(P60) and pair.b_value.meets(P60)


def test_residuals_are_tiny_and_tolerated():
    pair = solve_pair("n13", 6, P60)
    assert len(pair.residuals) == 2
    for r in pair.residuals:
        assert r.passed
        assert abs(r.value.magnitude) < mp.mpf("1e-60")


# ---------------------------------------------------------------------------
# reproduction
# ---------------------------------------------------------------------------

def test_reproduce_ids_cover_all_products():
    ids = reproduce_ids()
    assert len(ids) == 23
    for pid in ("a_2_3", "a_10_3", "a_38_5", "a_10_13", "b_40_3", "b_24_13"):
        assert pid in ids


@pytest.mark.parametrize("pid", ["a_2_3", "a_10_3", "a_2_5", "a_4_7",
                                 "a_6_13", "b_24_13"])
def test_reproduce_three_way_agreement(pid):
    rep = reproduce_corollary(pid, P60)
    assert rep.passed
    assert min(rep.agreement.values()) >= 60
    assert rep.record.label.startswith(pid.split("_")[0])


def test_reproduce_unknown_id():
    with pytest.raises(KeyError, match="known ids"):
        reproduce_corollary("a_3_9", P60)
    with pytest.raises(KeyError, match="known ids"):
        reproduce_corollary("nonsense", P60)


def test_reproduce_detects_corrupted_registry():
    recs = list(load_builtin_registry())
    for i, rec in enumerate(recs):
        if rec.kind == "a" and rec.params == (Fraction(2), Fraction(3)):
            wrong_text = "2 * " + rec.expr_text
            recs[i] = CorollaryRecord(rec.kind, rec.params, wrong_text,
                                      parse_radical(wrong_text), rec.source)
    rep = reproduce_corollary("a_2_3", P60, records=recs)
    assert not rep.passed
    assert rep.agreement["closed_vs_definitional"] < 10
    # the solved and definitional values still agree; only the forged
    # closed form is off
    assert rep.agreement["solved_vs_definitional"] >= 60


# ---------------------------------------------------------------------------
# the family equations come from the catalogue
# ---------------------------------------------------------------------------

@pytest.fixture
def edited_catalogue(monkeypatch):
    """Point the pipeline at the builtin catalogue text with one edit."""
    text = resources.files("thetaprod").joinpath("data/catalogue.txt").read_text()

    def use(old, new):
        assert text.count(old) == 1
        edited = parse_catalogue(text.replace(old, new))
        monkeypatch.setattr(pipeline, "load_builtin", lambda: edited)
        pipeline._equations.cache_clear()
    yield use
    pipeline._equations.cache_clear()


def test_pipeline_solves_the_catalogue_relations(edited_catalogue):
    # quad7 with one constant off by one: the pipeline must notice
    edited_catalogue("16317*", "16318*")
    try:
        rep = reproduce_corollary("a_2_7", P60)
    except RootSelectionError:
        return
    assert not rep.passed


def test_relation_outside_w_v_shape_is_rejected(edited_catalogue):
    with pytest.raises(CatalogueError, match="'e24'.*non-integral centred exponent"):
        pipeline._derive(find_record(load_builtin(), "e24"), 1, 1)
    edited_catalogue("16317*", "16317/2*")
    with pytest.raises(CatalogueError, match="'quad7'.*not an integer"):
        reproduce_corollary("a_2_7", P60)
