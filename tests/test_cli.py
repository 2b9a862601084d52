"""CLI behavior: exit codes, output shapes, JSON determinism."""
from __future__ import annotations

import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, workdps

from thetaprod import products
from thetaprod.cli import main
from thetaprod.precision import PrecisionSpec, RealValue
from thetaprod.radicals import load_builtin_registry
from thetaprod.report import CheckRecord, RunReport, render_text

BAD_CATALOGUE = """
identity broken {
  P = fp(1) * f(2) ;
  Q = f(1)^-1 * f(2)^4 * f(4)^-1 ;
  relation: P - 2*Q ;
  source: "test fixture" ;
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# report primitives
# ---------------------------------------------------------------------------

def test_report_counts_and_verdict():
    recs = (CheckRecord("x", "value", "pass"),
            CheckRecord("y", "corollary", "fail", {"d": 1}),
            CheckRecord("z", "invariant", "skip", {"reason": "n/a"}))
    rep = RunReport("demo", 50, recs, wall_ms=7)
    assert rep.counts == {"pass": 1, "fail": 1, "skip": 1}
    assert not rep.passed
    text = render_text(rep)
    assert "FAIL  y" in text and "SKIP  z" in text
    assert "demo: 3 checks, 1 pass, 1 fail, 1 skip" in text


def test_report_json_shape():
    rep = RunReport("demo", 50, (CheckRecord("x", "value", "pass", {"v": "1"}),))
    payload = json.loads(rep.to_json())
    assert payload["verdict"] == "pass"
    assert payload["checks"][0]["name"] == "x"
    assert payload["digits"] == 50


# ---------------------------------------------------------------------------
# eval commands
# ---------------------------------------------------------------------------

def test_eval_a_value_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "eval-a", "2", "3", "--digits", "45",
                           "--json")
    assert code == 0
    value = json.loads(out)["checks"][0]["details"]["value"]
    with workdps(60):
        want = (mp.sqrt(2) - 1) * mp.sqrt(mp.sqrt(3) + mp.sqrt(2))
        assert abs(mp.mpf(value) - want) < mp.mpf("1e-43")


def test_eval_b_runs(capsys):
    code, out, _ = run_cli(capsys, "eval-b", "8", "5", "--digits", "40")
    assert code == 0
    assert "b(8,5)" in out


def test_eval_invariant_reports_closed_form(capsys):
    code, out, _ = run_cli(capsys, "eval-invariant", "g", "30",
                           "--digits", "40")
    assert code == 0
    assert "closed_form" in out and "1.7223339564" in out


def test_eval_nome_square_value(capsys):
    code, out, _ = run_cli(capsys, "eval-nome", "4", "1", "--digits", "40",
                           "--json")
    assert code == 0
    value = json.loads(out)["checks"][0]["details"]["value"]
    with workdps(60):
        assert abs(mp.mpf(value) - mp.exp(-2 * mp.pi)) < mp.mpf("1e-38")


def test_eval_b_escalates_near_the_cusp(capsys):
    # at q = exp(-pi/sqrt(15000)) the two b forms need more working digits
    # than the default guard gives; the evaluation widens it and succeeds
    code, out, _ = run_cli(capsys, "eval-b", "1/3000", "5", "--digits", "30",
                           "--json")
    assert code == 0
    value = json.loads(out)["checks"][0]["details"]["value"]
    # phi(-q) is near 4e-41 here, so jtheta needs the extra digits
    with workdps(100):
        q = mp.exp(-mp.pi / mp.sqrt(15000))

        def psi(x):
            return mp.qp(x ** 2, x ** 2) / mp.qp(x, x ** 2)

        def phi_minus(x):
            return mp.jtheta(3, 0, -x)

        want = (5 * q * psi(q ** 5) ** 2 * phi_minus(q ** 5) ** 2
                / (psi(q) ** 2 * phi_minus(q) ** 2))
        assert abs(mp.mpf(value) / want - 1) < mp.mpf("1e-29")


def test_cross_form_disagreement_is_an_error(capsys, monkeypatch):
    quotient_values = products.quotient_values
    euler = products._form_quotient("b", "euler_quotient", Fraction(13))

    def one_form_off(exprs, q):
        values = quotient_values(exprs, q)
        return [v * RealValue.exact(mp.mpf("1.000000000001")) if e == euler else v
                for e, v in zip(exprs, values)]

    monkeypatch.setattr(products, "quotient_values", one_form_off)
    code, out, err = run_cli(capsys, "eval-b", "8", "13", "--digits", "30")
    assert code == 1
    assert out == ""
    assert err.startswith("error: b(8,13) forms agree to only ")


def test_eval_rejects_nonsense_arguments(capsys):
    code, _, err = run_cli(capsys, "eval-a", "zebra", "3")
    assert code == 2
    assert "rational" in err
    code, _, err = run_cli(capsys, "eval-a", "-2", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# verification commands
# ---------------------------------------------------------------------------

def test_verify_identity_single(capsys):
    code, out, _ = run_cli(capsys, "verify-identity", "e24",
                           "--digits", "45", "--series-order", "48")
    assert code == 0
    assert "e24 numeric q=0.01" in out
    assert "e24 series" in out


def test_verify_identity_numeric_only_with_custom_probes(capsys):
    code, out, _ = run_cli(capsys, "verify-identity", "dup3", "--numeric",
                           "--digits", "45", "--probes", "0.03,0.07")
    assert code == 0
    assert "q=0.03" in out and "q=0.07" in out
    assert "series" not in out


def test_verify_identity_series_only(capsys):
    code, out, _ = run_cli(capsys, "verify-identity", "gq5", "--series",
                           "--series-order", "48")
    assert code == 0
    assert "numeric" not in out


def test_verify_identity_series_order_below_q_prefix(capsys):
    code, out, _ = run_cli(capsys, "verify-identity", "rec7", "--series",
                           "--series-order", "24")
    assert code == 0
    assert "PASS  rec7 series  [order=24]" in out


def test_verify_identity_unknown_id_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify-identity", "nope", "--digits", "45")
    assert code == 2
    assert "catalogue has" in err


def test_verify_identity_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(BAD_CATALOGUE)
    code, out, _ = run_cli(capsys, "verify-identity", "all", "--digits", "45",
                           "--series-order", "48", "--catalogue", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_malformed_catalogue_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("identity x { P = zebra(1); }")
    code, _, err = run_cli(capsys, "verify-identity", "all",
                           "--catalogue", str(bad))
    assert code == 2
    assert "malformed catalogue" in err


def test_bad_probe_values_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify-identity", "e24", "--numeric",
                           "--digits", "45", "--probes", "1.5")
    assert code == 2
    assert "must lie in (0, 1)" in err


def test_verify_corollary_single_and_unknown(capsys):
    code, out, _ = run_cli(capsys, "verify-corollary", "a_2_3",
                           "--digits", "45")
    assert code == 0
    assert "a(2,3)" in out
    code, _, err = run_cli(capsys, "verify-corollary", "a_99_3",
                           "--digits", "45")
    assert code == 2
    assert "known ids" in err


def test_verify_corollary_fraction_id(capsys):
    code, out, _ = run_cli(capsys, "verify-corollary", "g_10/3",
                           "--digits", "45")
    assert code == 0
    assert "g(10/3)" in out


def test_reproduce_single_and_unknown(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "a_2_3", "--digits", "45")
    assert code == 0
    assert "reproduce a_2_3" in out
    code, _, err = run_cli(capsys, "reproduce", "a_1_9", "--digits", "45")
    assert code == 2


@pytest.mark.parametrize("command", ["verify-corollary", "reproduce"])
def test_product_ids_read_rational_parameters(capsys, command):
    code, out, _ = run_cli(capsys, command, "a_4/2_3", "--digits", "45",
                           "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {"pass": 1, "fail": 0, "skip": 0}


@pytest.mark.parametrize("command", ["verify-corollary", "reproduce"])
@pytest.mark.parametrize("ident", ["a__3", "x_1", "a_1_2_3"])
def test_malformed_ids_are_usage_errors(capsys, command, ident):
    code, out, err = run_cli(capsys, command, ident, "--digits", "45")
    assert code == 2
    assert out == ""
    assert f"unknown id {ident!r}; known ids: " in err


def test_reproduce_lists_only_product_ids(capsys):
    code, _, err = run_cli(capsys, "reproduce", "g_30", "--digits", "45")
    assert code == 2
    known = err.strip().split("known ids: ")[1].split(", ")
    assert "a_2_3" in known and "b_40_3" in known
    assert all(ident[:2] in ("a_", "b_") for ident in known)


def test_forged_registry_fails_with_exit_one(tmp_path, capsys):
    forged = tmp_path / "registry.txt"
    forged.write_text("a 2 3 = 2 * (sqrt(2)-1) * (sqrt(3)+sqrt(2))^(1/2)  # forged\n")
    code, out, _ = run_cli(capsys, "verify-corollary", "all", "--digits", "45",
                           "--registry", str(forged))
    assert code == 1
    assert "FAIL" in out


# the options each command takes: --digits, --json and the ones it reads
OPTIONS = {
    "eval-a": {"--digits", "--json"},
    "eval-b": {"--digits", "--json"},
    "eval-nome": {"--digits", "--json"},
    "eval-invariant": {"--digits", "--json", "--registry"},
    "verify-corollary": {"--digits", "--json", "--registry"},
    "reproduce": {"--digits", "--json", "--registry"},
    "verify-identity": {"--digits", "--json", "--series-order", "--probes",
                        "--catalogue", "--series", "--numeric"},
    "run-suite": {"--digits", "--json", "--series-order", "--probes",
                  "--catalogue", "--registry"},
}


def test_each_command_takes_only_the_options_it_reads(capsys):
    for command, options in OPTIONS.items():
        assert main([command, "--help"]) == 0
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert shown - {"--help"} == options, command
    assert sum(map(len, OPTIONS.values())) == 28


@pytest.mark.parametrize("argv", [
    ["eval-a", "2", "3", "--series-order", "5"],
    ["eval-nome", "1", "1", "--registry", "x.txt"],
    ["eval-invariant", "g", "30", "--probes", "0.1"],
    ["reproduce", "a_2_3", "--catalogue", "x.txt"],
    ["verify-corollary", "a_2_3", "--series-order", "48"],
    ["verify-identity", "e24", "--registry", "x.txt"],
    ["verify-identity", "e24", "--both"],
    ["run-suite", "--numeric"],
], ids=" ".join)
def test_an_option_the_command_does_not_read_is_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism and scripting
# ---------------------------------------------------------------------------

def test_json_runs_are_identical_except_wall_time(capsys):
    argv = ("verify-identity", "dup3", "--digits", "45",
            "--series-order", "48", "--json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_ms"), b.pop("wall_ms")
    assert a == b


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaprod.cli", "eval-nome", "1", "1",
         "--digits", "30", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    value = json.loads(proc.stdout)["checks"][0]["details"]["value"]
    with workdps(40):
        assert abs(mp.mpf(value) - mp.exp(-mp.pi)) < mp.mpf("1e-28")



def test_closed_pipe_is_quiet_and_keeps_the_exit_code():
    # the reader is gone before anything is written, as under `| head -3`
    proc = subprocess.Popen(
        [sys.executable, "-m", "thetaprod.cli", "verify-identity", "e24",
         "--digits", "60", "--series-order", "240"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == ""


def test_data_files_are_closed_after_reading():
    data = Path(__file__).resolve().parents[1] / "src" / "thetaprod" / "data"
    for argv in (["verify-identity", "e24", "--series", "--series-order", "24",
                  "--catalogue", str(data / "catalogue.txt")],
                 ["verify-corollary", "g_30", "--digits", "30",
                  "--registry", str(data / "registry.txt")]):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "thetaprod.cli", *argv],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning" not in proc.stderr


def test_suite_skips_when_registry_leg_missing():
    from thetaprod.cli import _suite_invariant_checks
    recs = [r for r in load_builtin_registry()
            if not (r.kind == "g" and r.params[0].denominator == 3)]
    out = _suite_invariant_checks(PrecisionSpec.of(40), recs)
    skip = [r for r in out if r.verdict == "skip"]
    assert skip and "not in registry" in skip[0].details["reason"]
