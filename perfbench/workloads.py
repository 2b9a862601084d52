"""Seeded inputs and runners for the three benchmark workloads.

suite-deep    the run-suite battery through ``cli.main`` at series order 2400,
              where the exact series layer does nearly all the work;
numeric-1000  ``verify_numeric`` on every catalogue identity at 1000 digits,
              where the theta-block sums do nearly all the work and the series
              layer is never called;
closed-500    registry certification, pipeline reproduction and seeded
              definitional evaluations at 500 digits: many short sums at many
              distinct nomes, nested precision escalation, radicals.

Every seeded value is drawn stratified (one draw from each equal slice of
its range), so that the amount of work, which grows with the probe or nome
size, changes little from one seed to the next while the points themselves
do change.  The program only ever sees the generated inputs.
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from time import perf_counter

import thetaprod
from mpmath import workdps
from thetaprod import cli

WORKLOADS = ("suite-deep", "numeric-1000", "closed-500")

SIZES = {
    "full": {
        "suite-deep": {"digits": 100, "series_order": 2400, "probes": 4},
        "numeric-1000": {"digits": 1000, "probes_per_identity": 5},
        "closed-500": {"digits": 500, "m_strata": 6, "g_points": 12},
    },
    "smoke": {
        "suite-deep": {"digits": 60, "series_order": 240, "probes": 4},
        "numeric-1000": {"digits": 60, "probes_per_identity": 2},
        "closed-500": {"digits": 60, "m_strata": 1, "g_points": 2},
    },
}

# The battery run-suite must report for four probes.
SUITE_BATTERY = {"identity-numeric": 80, "identity-series": 20,
                 "corollary": 29, "reproduce": 23, "invariant": 4}
SUITE_INVARIANT_CHECKS = ("companion triple3 g(10/3) from g(30)",
                          "companion deg13 g(6/13) from g(78)",
                          "multiplier13 q=0.05", "multiplier13 q=nome(1,13)")
# Check-level calls that run-suite makes; the timer rebinds them in cli.
SUITE_CHECK_CALLS = ("verify_numeric", "verify_series", "verify_corollary",
                     "reproduce_corollary", "verify_multiplier13",
                     "solve_companion")

PRODUCT_DEGREES = (3, 5, 7, 13)
M_RANGE = (1, 60)
G_RANGE = (Fraction(1, 2), Fraction(60))   # rational n for g(n), quarters
REFERENCE_DIGITS = 30


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of `count` equal slices of [lo, hi]."""
    edges = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    return [rng.randrange(edges[i], edges[i + 1]) for i in range(count)]


def _probes(rng, lo: Fraction, hi: Fraction, count: int) -> list[str]:
    # rationals with denominator 1000, one per slice of [lo, hi]
    ks = _stratified(rng, int(lo * 1000), int(hi * 1000), count)
    return [str(Fraction(k, 1000)) for k in ks]


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs of one workload; a JSON-safe dict that fully determines the run."""
    rng = random.Random(f"{workload}/{seed}")
    cfg = SIZES[size][workload]
    if workload == "suite-deep":
        probes = _probes(rng, Fraction(1, 100), Fraction(1, 5), cfg["probes"])
        return {"argv": ["run-suite", "--digits", str(cfg["digits"]),
                         "--series-order", str(cfg["series_order"]), "--json",
                         "--probes", ",".join(probes)]}
    if workload == "numeric-1000":
        ids = [rec.id for rec in thetaprod.load_builtin()]
        return {"digits": cfg["digits"],
                "probes": {rid: _probes(rng, Fraction(1, 100), Fraction(1, 4),
                                        cfg["probes_per_identity"])
                           for rid in ids}}
    if workload == "closed-500":
        registry = thetaprod.load_builtin_registry()
        points = []
        for n in PRODUCT_DEGREES:
            for which in ("a", "b"):
                for m in _stratified(rng, *M_RANGE, cfg["m_strata"]):
                    points.append([which, m, n])
        quarters = _stratified(rng, int(G_RANGE[0] * 4), int(G_RANGE[1] * 4),
                               cfg["g_points"])
        return {"digits": cfg["digits"],
                "corollaries": [rec.label for rec in registry],
                "reproduce": thetaprod.reproduce_ids(registry),
                "products": points,
                "invariants": [str(Fraction(k, 4)) for k in quarters]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# check timing
# ---------------------------------------------------------------------------

class Checks:
    """Times each check-level call; with a tracer, also opens the check span
    that gives the spans beneath it their check id.  With a host speed
    sampler, takes a sample right before and right after each check."""

    def __init__(self, tracer=None, host=None):
        self.intervals: list[tuple[float, float]] = []
        self.tracer = tracer
        self.host = host

    @property
    def ms(self) -> list[float]:
        return [(t1 - t0) * 1000 for t0, t1 in self.intervals]

    def call(self, fn, *args, **kwargs):
        tracer = self.tracer
        if self.host is not None:
            self.host.tick()
        t0 = perf_counter()
        try:
            if tracer is None:
                return fn(*args, **kwargs)
            tracer.check = len(self.intervals)
            return tracer.span("bench.check", fn, args, kwargs)
        finally:
            self.intervals.append((t0, perf_counter()))
            if tracer is not None:
                tracer.check = -1
            if self.host is not None:
                self.host.tick()


def _error(exc: Exception) -> str:
    return f"error: {type(exc).__name__}: {exc}"


def _check(checks: Checks, label: str, verdict_of, fn, *args, **kwargs):
    # PrecisionError, CrossFormError, RootSelectionError or anything else
    # raised by one check fails that check and the run goes on
    try:
        result = checks.call(fn, *args, **kwargs)
    except Exception as exc:
        return label, _error(exc)
    return label, verdict_of(result)


# ---------------------------------------------------------------------------
# workloads; prepare() does the untimed set-up, job(checks) one iteration
# ---------------------------------------------------------------------------

def prepare(workload: str, inputs: dict):
    if workload == "suite-deep":
        return _prepare_suite(inputs)
    if workload == "numeric-1000":
        return _prepare_numeric(inputs)
    return _prepare_closed(inputs)


def _prepare_suite(inputs: dict):
    argv = inputs["argv"]
    probes = argv[argv.index("--probes") + 1].split(",")
    expected = []
    for rec in thetaprod.load_builtin():
        expected += [f"{rec.id} numeric q={p}" for p in probes]
        expected.append(f"{rec.id} series")
    registry = thetaprod.load_builtin_registry()
    expected += [rec.label for rec in registry]
    expected += [f"reproduce {pid}" for pid in thetaprod.reproduce_ids(registry)]
    expected += SUITE_INVARIANT_CHECKS
    if len(expected) != sum(SUITE_BATTERY.values()):
        raise RuntimeError(f"suite battery has {len(expected)} checks, "
                           f"expected {sum(SUITE_BATTERY.values())}")
    return partial(_run_suite, argv, expected)


def _run_suite(argv, expected, checks: Checks):
    originals = {name: getattr(cli, name) for name in SUITE_CHECK_CALLS}
    for name, fn in originals.items():
        setattr(cli, name, partial(checks.call, fn))
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:
        return [(name, _error(exc)) for name in expected]
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        return [(name, f"error: exit {code} without a JSON report")
                for name in expected]
    names = [c["name"] for c in report["checks"]]
    kinds = {}
    for c in report["checks"]:
        kinds[c["kind"]] = kinds.get(c["kind"], 0) + 1
    if (names != expected or kinds != SUITE_BATTERY
            or len(checks.intervals) != len(expected)):
        return [(name, "error: report does not match the expected battery")
                for name in expected]
    return [(c["name"], c["verdict"]) for c in report["checks"]]


def _prepare_numeric(inputs: dict):
    prec = thetaprod.PrecisionSpec.of(inputs["digits"])
    plan = [(rec, [Fraction(p) for p in inputs["probes"][rec.id]])
            for rec in thetaprod.load_builtin()]
    return partial(_run_numeric, plan, prec)


def _run_numeric(plan, prec, checks: Checks):
    return [_check(checks, f"{rec.id} numeric q={q}", lambda r: r.verdict,
                   thetaprod.verify_numeric, rec, q, prec)
            for rec, probes in plan for q in probes]


def _prepare_closed(inputs: dict):
    prec = thetaprod.PrecisionSpec.of(inputs["digits"])
    registry = thetaprod.load_builtin_registry()
    ref_prec = thetaprod.PrecisionSpec.of(REFERENCE_DIGITS)
    values = []
    for which, m, n in inputs["products"]:
        name = "a_numeric" if which == "a" else "b_numeric"
        reference = getattr(thetaprod, name)(m, n, ref_prec).value.magnitude
        values.append((f"{which}({m},{n})", name, (m, n), reference))
    for text in inputs["invariants"]:
        n = Fraction(text)
        reference = thetaprod.g_numeric(n, ref_prec).value.magnitude
        values.append((f"g({n})", "g_numeric", (n,), reference))
    return partial(_run_closed, registry, inputs["reproduce"], values, prec)


def _value_verdict(value, reference, prec) -> str:
    """A definitional value passes when it meets its own error budget and
    agrees with a separate evaluation at REFERENCE_DIGITS made in set-up."""
    if not (value.magnitude > 0 and value.meets(prec)):
        return "fail"
    with workdps(REFERENCE_DIGITS + 10):
        agreed = thetaprod.digits_agreed(value.magnitude, reference)
    return "pass" if agreed >= REFERENCE_DIGITS - 5 else "fail"


def _run_closed(registry, pids, values, prec, checks: Checks):
    out = [_check(checks, rec.label, lambda c: c.verdict,
                  thetaprod.verify_corollary, rec, prec) for rec in registry]
    out += [_check(checks, f"reproduce {pid}", lambda r: r.verdict,
                   thetaprod.reproduce_corollary, pid, prec, records=registry)
            for pid in pids]
    for label, name, args, reference in values:
        # looked up by name on each call, so a traced run calls the wrapper
        out.append(_check(checks, label,
                          lambda v, ref=reference: _value_verdict(v.value, ref, prec),
                          getattr(thetaprod, name), *args, prec))
    return out
