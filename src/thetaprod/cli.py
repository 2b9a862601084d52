"""Command-line harness.

Commands evaluate individual quantities (eval-a, eval-b, eval-invariant,
eval-nome), verify catalogued identities exactly and numerically
(verify-identity), re-check registry closed forms (verify-corollary),
rebuild product values through the invariant pipeline (reproduce), or run
the whole battery (run-suite).  One table, _COMMANDS, declares each
command's arguments and handler; every command takes --digits and --json
and, beyond those, only the options it reads.  Exit codes: 0 all checks
pass, 1 at least one verification failed, 2 usage or malformed input.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from mpmath import mp, workdps

from .blocks import nome
from .catalogue import CatalogueError, find_record, load_builtin, parse_catalogue
from .invariants import (G_numeric, RootSelectionError, g_numeric, registry_lookup,
                         solve_companion)
from .pipeline import reproduce_corollary, reproduce_ids
from .precision import PrecisionError, PrecisionSpec, digits_agreed
from .products import CrossFormError, a_numeric, b_numeric
from .radicals import (
    RadicalError,
    eval_radical,
    load_builtin_registry,
    parse_registry,
    registry_by_id,
    registry_find,
    verify_corollary,
)
from .report import CheckRecord, RunReport, render_text
from .verify import (
    default_probes,
    verify_multiplier13,
    verify_numeric,
    verify_series,
)

USAGE_EXIT = 2
FAIL_EXIT = 1


class UsageError(Exception):
    """Bad command-line input: unknown id, malformed file, bad value."""


def _fraction(text: str, what: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational number, got {text!r}")
    if value <= 0:
        raise UsageError(f"{what} must be positive, got {text!r}")
    return value


def _load(args, what: str):
    """The builtin "catalogue" or "registry", or the file its option names."""
    if what == "catalogue":
        builtin, parse, error = load_builtin, parse_catalogue, CatalogueError
    else:
        builtin, parse, error = load_builtin_registry, parse_registry, RadicalError
    path = getattr(args, what)
    if path is None:
        return builtin()
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}")
    except error as exc:
        raise UsageError(f"malformed {what}: {exc}")


def _parse_probes(text):
    if text is None:
        return None
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            fr = Fraction(chunk)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad probe value {chunk!r}")
        if not 0 < fr < 1:
            raise UsageError(f"probe {chunk!r} must lie in (0, 1)")
        out.append((f"q={chunk}", fr))
    if not out:
        raise UsageError("--probes given but empty")
    return out


def _mpf_str(x, digits: int) -> str:
    return mp.nstr(x, digits, strip_zeros=False)


def _value_details(value, prec, **params) -> dict:
    """params, then the value to the target digits and its error bound."""
    with workdps(prec.working_digits):
        return {**params, "value": _mpf_str(value.magnitude, prec.target_digits),
                "error_bound": _mpf_str(value.error_bound, 3)}


def _residual_details(res, prec) -> dict:
    """The residual's upper bound and the tolerance it was held to."""
    with workdps(prec.working_digits):
        return {"residual": _mpf_str(abs(res.value.magnitude)
                                     + res.value.error_bound, 3),
                "tolerance": _mpf_str(res.tolerance, 3)}


# ---------------------------------------------------------------------------
# command handlers; each takes (args, prec) and returns a list of CheckRecords
# ---------------------------------------------------------------------------

def _cmd_eval_product(args, prec):
    m = _fraction(args.m, "m")
    n = _fraction(args.n, "n")
    fn = a_numeric if args.command == "eval-a" else b_numeric
    which = "a" if args.command == "eval-a" else "b"
    details = _value_details(fn(m, n, prec).value, prec, m=str(m), n=str(n))
    return [CheckRecord(f"{which}({m},{n})", "value", "pass", details)]


def _cmd_eval_invariant(args, prec):
    registry = _load(args, "registry")
    n = _fraction(args.n, "n")
    fn = g_numeric if args.kind == "g" else G_numeric
    details = _value_details(fn(n, prec).value, prec, n=str(n))
    rec = registry_lookup(args.kind, n, registry)
    if rec is not None:
        details["closed_form"] = rec.expr_text
        details["source"] = rec.source
    return [CheckRecord(f"{args.kind}({n})", "value", "pass", details)]


def _cmd_eval_nome(args, prec):
    m = _fraction(args.m, "m")
    n = _fraction(args.n, "n")
    details = _value_details(nome(m, n, prec).q, prec, m=str(m), n=str(n))
    return [CheckRecord(f"nome({m},{n})", "value", "pass", details)]


def _select(ident, records, find):
    """Every record for "all", else the one find(records, ident) returns."""
    if ident == "all":
        return list(records)
    try:
        return [find(records, ident)]
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))


def _cmd_verify_identity(args, prec):
    records = _select(args.id, _load(args, "catalogue"), find_record)
    both = not (args.series or args.numeric)
    return _identity_checks(records, prec, args.series or both,
                            args.numeric or both, args.series_order, args.probes)


def _identity_checks(records, prec, do_series, do_numeric, series_order,
                     probe_text):
    if do_series and series_order < 24:
        raise UsageError("--series-order must be at least 24")
    if do_numeric and prec.target_digits < 40:
        raise UsageError("--digits must be at least 40 for numeric checks")
    custom = _parse_probes(probe_text)
    out = []
    for rec in records:
        if do_numeric:
            probes = custom if custom is not None else default_probes(rec, prec)
            for label, q in probes:
                res = verify_numeric(rec, q, prec)
                out.append(CheckRecord(
                    f"{rec.id} numeric {label}", "identity-numeric",
                    res.verdict, _residual_details(res, prec)))
        if do_series:
            chk = verify_series(rec, series_order)
            details = {"order": series_order}
            if not chk.ok:
                details["first_failure"] = chk.first_failure
            out.append(CheckRecord(
                f"{rec.id} series", "identity-series",
                "pass" if chk.ok else "fail", details))
    return out


def _cmd_verify_corollary(args, prec):
    return _corollary_checks(
        _select(args.id, _load(args, "registry"), registry_by_id), prec)


def _corollary_checks(records, prec):
    out = []
    for rec in records:
        chk = verify_corollary(rec, prec)
        out.append(CheckRecord(
            f"{rec.label}", "corollary", chk.verdict,
            {"digits_agreed": chk.digits, "target": prec.target_digits,
             "closed_form": rec.expr_text}))
    return out


def _cmd_reproduce(args, prec):
    registry = _load(args, "registry")
    ids = reproduce_ids(registry) if args.id == "all" else [args.id]
    return _reproduce_checks(ids, prec, registry)


def _reproduce_checks(ids, prec, registry):
    out = []
    for pid in ids:
        try:
            rep = reproduce_corollary(pid, prec, records=registry)
        except KeyError as exc:
            raise UsageError(str(exc.args[0]))
        details = dict(rep.agreement)
        details["lambda"] = rep.pair.lam.construction
        details["residuals_ok"] = all(r.passed for r in rep.pair.residuals)
        out.append(CheckRecord(f"reproduce {pid}", "reproduce",
                               rep.verdict, details))
    return out


def _suite_invariant_checks(prec, registry):
    """Cross-checks that only make sense with the builtin registry legs."""
    out = []

    def companion(name, relation, known_n, target_n, solve_n):
        rec = registry_find(registry, "g", Fraction(target_n))
        if rec is None:
            out.append(CheckRecord(name, "invariant", "skip",
                                   {"reason": f"g({target_n}) not in registry"}))
            return
        try:
            known = g_numeric(known_n, prec).value
            got = solve_companion(relation, known, solve_n, prec)
            with workdps(prec.working_digits):
                closed = eval_radical(rec.expr, prec)
                digits = digits_agreed(got.magnitude, closed.magnitude)
            verdict = "pass" if digits >= prec.target_digits else "fail"
            out.append(CheckRecord(name, "invariant", verdict,
                                   {"digits_agreed": digits,
                                    "target": prec.target_digits}))
        except (PrecisionError, RootSelectionError) as exc:
            out.append(CheckRecord(name, "invariant", "fail",
                                   {"error": str(exc)}))

    companion("companion triple3 g(10/3) from g(30)", "triple3",
              30, Fraction(10, 3), 10)
    companion("companion deg13 g(6/13) from g(78)", "deg13",
              78, Fraction(6, 13), 6)

    mult_prec = PrecisionSpec.of(min(prec.target_digits, 80))
    for label, q in (("q=0.05", Fraction(1, 20)),
                     ("q=nome(1,13)", None)):
        qv = nome(1, 13, mult_prec).q if q is None else q
        res = verify_multiplier13(qv, mult_prec)
        out.append(CheckRecord(f"multiplier13 {label}", "invariant",
                               res.verdict, _residual_details(res, mult_prec)))
    return out


def _cmd_run_suite(args, prec):
    catalogue, registry = _load(args, "catalogue"), _load(args, "registry")
    out = _identity_checks(catalogue, prec, True, True, args.series_order,
                           args.probes)
    out += _corollary_checks(registry, prec)
    out += _reproduce_checks(reproduce_ids(registry), prec, registry)
    out += _suite_invariant_checks(prec, registry)
    return out


# each argument's add_argument keywords; a positional not listed takes none
_ARGUMENTS = {
    "kind": {"choices": ("g", "G")},
    "--digits": {"type": int, "default": 100, "help": "target decimal digits (default 100)"},
    "--json": {"action": "store_true", "help": "emit a JSON report instead of text"},
    "--series-order": {"type": int, "default": 720,
                       "help": "lattice truncation order for exact checks (default 720)"},
    "--probes": {"help": "comma-separated probe values in (0,1), e.g. 0.01,0.05; "
                         "default adds the natural nome"},
    "--catalogue": {"help": "path to an identity catalogue file"},
    "--registry": {"help": "path to a closed-form registry file"},
    "--series": {"action": "store_true", "help": "exact series check only"},
    "--numeric": {"action": "store_true", "help": "numeric probe check only"},
}

# command -> (help, positional arguments, options besides --digits and --json,
# handler); a tuple among the options is a group of mutually exclusive flags.
# The table holds only cli's own handlers: they look up the library functions
# they call when they run, so that a caller may rebind those names in cli.
_COMMANDS = {
    "eval-a": ("evaluate the product a(m, n)", ("m", "n"), (), _cmd_eval_product),
    "eval-b": ("evaluate the product b(m, n)", ("m", "n"), (), _cmd_eval_product),
    "eval-invariant": ("evaluate g(n) or G(n)", ("kind", "n"), ("--registry",),
                       _cmd_eval_invariant),
    "eval-nome": ("evaluate exp(-pi sqrt(m/n))", ("m", "n"), (), _cmd_eval_nome),
    "verify-identity": ("check a catalogued identity (or all)", ("id",),
                        ("--series-order", "--probes", "--catalogue", ("--series", "--numeric")),
                        _cmd_verify_identity),
    "verify-corollary": ("re-check a registry closed form (or all)", ("id",), ("--registry",),
                         _cmd_verify_corollary),
    "reproduce": ("rebuild a product value from invariants (or all)", ("id",), ("--registry",),
                  _cmd_reproduce),
    "run-suite": ("run every check in one battery", (),
                  ("--series-order", "--probes", "--catalogue", "--registry"), _cmd_run_suite),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaprod",
        description="evaluate and verify Ramanujan theta-function products")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, positional, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in (*positional, "--digits", "--json", *options):
            if isinstance(name, tuple):
                group = p.add_mutually_exclusive_group()
                for flag in name:
                    group.add_argument(flag, **_ARGUMENTS[flag])
            else:
                p.add_argument(name, **_ARGUMENTS.get(name, {}))
    return parser


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(args) -> RunReport:
    if args.digits < 1:
        raise UsageError("--digits must be positive")
    prec = PrecisionSpec.of(args.digits)
    t0 = time.monotonic()
    records = _COMMANDS[args.command][-1](args, prec)
    wall_ms = int((time.monotonic() - t0) * 1000)
    return RunReport(args.command, args.digits, tuple(records),
                     series_order=getattr(args, "series_order", None),
                     wall_ms=wall_ms)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        report = run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (PrecisionError, RootSelectionError, CrossFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT
    try:
        print(report.to_json() if args.json else render_text(report), flush=True)
    except BrokenPipeError:
        # the reader has gone, as under `| head`: the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.passed else FAIL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
