"""Command-line harness.

Commands evaluate individual quantities (eval-a, eval-b, eval-invariant,
eval-nome), verify catalogued identities exactly and numerically
(verify-identity), re-check registry closed forms (verify-corollary),
rebuild product values through the invariant pipeline (reproduce), or run
the whole battery (run-suite).  Exit codes: 0 all checks pass, 1 at least
one verification failed, 2 usage or malformed input.
"""
from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from mpmath import mp, workdps

from .blocks import nome
from .catalogue import CatalogueError, find_record, load_builtin, parse_catalogue
from .invariants import G_numeric, RootSelectionError, g_numeric, solve_companion
from .pipeline import reproduce_corollary, reproduce_ids
from .precision import PrecisionError, PrecisionSpec, digits_agreed
from .products import a_numeric, b_numeric
from .radicals import (
    RadicalError,
    eval_radical,
    load_builtin_registry,
    parse_registry,
    registry_find,
    verify_corollary,
)
from .report import CheckRecord, RunReport, render_text
from .verify import (
    default_probes,
    default_tolerance,
    verify_multiplier13,
    verify_numeric,
    verify_series,
)

USAGE_EXIT = 2
FAIL_EXIT = 1


class UsageError(Exception):
    """Bad command-line input: unknown id, malformed file, bad value."""


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=100,
                        help="target decimal digits (default 100)")
    common.add_argument("--series-order", type=int, default=720,
                        help="lattice truncation order for exact checks "
                             "(default 720)")
    common.add_argument("--probes", type=str, default=None,
                        help="comma-separated probe values in (0,1), e.g. "
                             "0.01,0.05; default adds the natural nome")
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    common.add_argument("--catalogue", type=str, default=None,
                        help="path to an identity catalogue file")
    common.add_argument("--registry", type=str, default=None,
                        help="path to a closed-form registry file")

    parser = argparse.ArgumentParser(
        prog="thetaprod",
        description="evaluate and verify Ramanujan theta-function products")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-a", parents=[common],
                       help="evaluate the product a(m, n)")
    p.add_argument("m")
    p.add_argument("n")
    p = sub.add_parser("eval-b", parents=[common],
                       help="evaluate the product b(m, n)")
    p.add_argument("m")
    p.add_argument("n")
    p = sub.add_parser("eval-invariant", parents=[common],
                       help="evaluate g(n) or G(n)")
    p.add_argument("kind", choices=("g", "G"))
    p.add_argument("n")
    p = sub.add_parser("eval-nome", parents=[common],
                       help="evaluate exp(-pi sqrt(m/n))")
    p.add_argument("m")
    p.add_argument("n")

    p = sub.add_parser("verify-identity", parents=[common],
                       help="check a catalogued identity (or all)")
    p.add_argument("id")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--series", action="store_true",
                      help="exact series check only")
    mode.add_argument("--numeric", action="store_true",
                      help="numeric probe check only")
    mode.add_argument("--both", action="store_true",
                      help="both checks (default)")

    p = sub.add_parser("verify-corollary", parents=[common],
                       help="re-check a registry closed form (or all)")
    p.add_argument("id")

    p = sub.add_parser("reproduce", parents=[common],
                       help="rebuild a product value from invariants (or all)")
    p.add_argument("id")

    sub.add_parser("run-suite", parents=[common],
                   help="run every check in one battery")
    return parser


def _fraction(text: str, what: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a rational number, got {text!r}")
    if value <= 0:
        raise UsageError(f"{what} must be positive, got {text!r}")
    return value


def _load_catalogue(args):
    if args.catalogue is None:
        return load_builtin()
    try:
        return parse_catalogue(open(args.catalogue).read())
    except OSError as exc:
        raise UsageError(f"cannot read catalogue: {exc}")
    except CatalogueError as exc:
        raise UsageError(f"malformed catalogue: {exc}")


def _load_registry(args):
    if args.registry is None:
        return load_builtin_registry()
    try:
        return parse_registry(open(args.registry).read())
    except OSError as exc:
        raise UsageError(f"cannot read registry: {exc}")
    except RadicalError as exc:
        raise UsageError(f"malformed registry: {exc}")


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


# ---------------------------------------------------------------------------
# command implementations; each returns a list of CheckRecords
# ---------------------------------------------------------------------------

def _cmd_eval_product(args, prec):
    m = _fraction(args.m, "m")
    n = _fraction(args.n, "n")
    fn = a_numeric if args.command == "eval-a" else b_numeric
    which = "a" if args.command == "eval-a" else "b"
    value = fn(m, n, prec).value
    with workdps(prec.working_digits):
        details = {"m": str(m), "n": str(n),
                   "value": _mpf_str(value.magnitude, prec.target_digits),
                   "error_bound": _mpf_str(value.error_bound, 3)}
    return [CheckRecord(f"{which}({m},{n})", "value", "pass", details)]


def _cmd_eval_invariant(args, prec, registry):
    n = _fraction(args.n, "n")
    fn = g_numeric if args.kind == "g" else G_numeric
    inv = fn(n, prec)
    with workdps(prec.working_digits):
        details = {"n": str(n),
                   "value": _mpf_str(inv.value.magnitude, prec.target_digits),
                   "error_bound": _mpf_str(inv.value.error_bound, 3)}
    rec = registry_find(registry, "g", n) if args.kind == "g" else None
    if rec is not None:
        details["closed_form"] = rec.expr_text
        details["source"] = rec.source
    return [CheckRecord(f"{args.kind}({n})", "value", "pass", details)]


def _cmd_eval_nome(args, prec):
    m = _fraction(args.m, "m")
    n = _fraction(args.n, "n")
    point = nome(m, n, prec)
    with workdps(prec.working_digits):
        details = {"m": str(m), "n": str(n),
                   "value": _mpf_str(point.q.magnitude, prec.target_digits),
                   "error_bound": _mpf_str(point.q.error_bound, 3)}
    return [CheckRecord(f"nome({m},{n})", "value", "pass", details)]


def _identity_records(ident, catalogue):
    if ident == "all":
        return list(catalogue)
    try:
        return [find_record(catalogue, ident)]
    except KeyError as exc:
        raise UsageError(str(exc.args[0]))


def _cmd_verify_identity(args, prec, catalogue):
    both = args.both or not (args.series or args.numeric)
    return _identity_checks(catalogue, args.id, prec, args.series or both,
                            args.numeric or both, args.series_order, args.probes)


def _identity_checks(catalogue, ident, prec, do_series, do_numeric,
                     series_order, probe_text):
    if do_series and series_order < 24:
        raise UsageError("--series-order must be at least 24")
    if do_numeric and prec.target_digits < 40:
        raise UsageError("--digits must be at least 40 for numeric checks")
    custom = _parse_probes(probe_text)
    out = []
    for rec in _identity_records(ident, catalogue):
        if do_numeric:
            probes = custom if custom is not None else default_probes(rec, prec)
            for label, q in probes:
                res = verify_numeric(rec, q, prec)
                with workdps(prec.working_digits):
                    out.append(CheckRecord(
                        f"{rec.id} numeric {label}", "identity-numeric",
                        res.verdict,
                        {"residual": _mpf_str(abs(res.value.magnitude)
                                              + res.value.error_bound, 3),
                         "tolerance": _mpf_str(res.tolerance, 3)}))
        if do_series:
            chk = verify_series(rec, series_order)
            details = {"order": series_order}
            if not chk.ok:
                details["first_failure"] = chk.first_failure
            out.append(CheckRecord(
                f"{rec.id} series", "identity-series",
                "pass" if chk.ok else "fail", details))
    return out


def _corollary_records(ident, registry):
    if ident == "all":
        return list(registry)
    parts = ident.split("_")
    known = [f"{r.kind}_{'_'.join(str(p) for p in r.params)}" for r in registry]
    if len(parts) >= 2 and parts[0] in ("g", "gg", "a", "b"):
        try:
            params = tuple(Fraction(p) for p in parts[1:])
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"unknown id {ident!r}; known ids: "
                             + ", ".join(known))
        rec = registry_find(registry, parts[0], *params)
        if rec is not None:
            return [rec]
    raise UsageError(f"unknown id {ident!r}; known ids: " + ", ".join(known))


def _corollary_checks(records, prec):
    out = []
    for rec in records:
        chk = verify_corollary(rec, prec)
        out.append(CheckRecord(
            f"{rec.label}", "corollary", chk.verdict,
            {"digits_agreed": chk.digits, "target": prec.target_digits,
             "closed_form": rec.expr_text}))
    return out


def _reproduce_checks(ids, prec, registry):
    out = []
    for pid in ids:
        try:
            rep = reproduce_corollary(pid, prec, records=registry)
        except KeyError as exc:
            raise UsageError(str(exc.args[0]))
        details = dict(rep.agreement)
        details["lambda"] = rep.lam.construction
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
        with workdps(mult_prec.working_digits):
            out.append(CheckRecord(
                f"multiplier13 {label}", "invariant", res.verdict,
                {"residual": _mpf_str(abs(res.value.magnitude)
                                      + res.value.error_bound, 3),
                 "tolerance": _mpf_str(res.tolerance, 3)}))
    return out


def _cmd_run_suite(args, prec, catalogue, registry):
    out = _identity_checks(catalogue, "all", prec, True, True,
                           args.series_order, args.probes)
    out += _corollary_checks(registry, prec)
    out += _reproduce_checks(reproduce_ids(registry), prec, registry)
    out += _suite_invariant_checks(prec, registry)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(args) -> RunReport:
    if args.digits < 1:
        raise UsageError("--digits must be positive")
    prec = PrecisionSpec.of(args.digits)
    t0 = time.monotonic()

    if args.command in ("eval-a", "eval-b"):
        records = _cmd_eval_product(args, prec)
    elif args.command == "eval-invariant":
        records = _cmd_eval_invariant(args, prec, _load_registry(args))
    elif args.command == "eval-nome":
        records = _cmd_eval_nome(args, prec)
    elif args.command == "verify-identity":
        records = _cmd_verify_identity(args, prec, _load_catalogue(args))
    elif args.command == "verify-corollary":
        registry = _load_registry(args)
        records = _corollary_checks(_corollary_records(args.id, registry), prec)
    elif args.command == "reproduce":
        registry = _load_registry(args)
        ids = reproduce_ids(registry) if args.id == "all" else [args.id]
        records = _reproduce_checks(ids, prec, registry)
    elif args.command == "run-suite":
        records = _cmd_run_suite(args, prec, _load_catalogue(args),
                                 _load_registry(args))
    else:
        raise UsageError(f"unknown command {args.command!r}")

    wall_ms = int((time.monotonic() - t0) * 1000)
    order = args.series_order if args.command in ("verify-identity",
                                                  "run-suite") else None
    return RunReport(args.command, args.digits, tuple(records),
                     series_order=order, wall_ms=wall_ms)


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
    except (PrecisionError, RootSelectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT
    print(report.to_json() if args.json else render_text(report))
    return 0 if report.passed else FAIL_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
