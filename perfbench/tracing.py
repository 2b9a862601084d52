"""Spans and counters recorded around the public entry points of each
thetaprod module, from the benchmark's side of the boundary.

Modules import names directly (``from .series import mul``), so a wrapper is
installed by rebinding every attribute of every thetaprod module that holds
the original function, and removed the same way.  Spans stay in memory until
the run ends.  A layer's self time is its span duration minus the time its
direct child spans cover, so the self times of all spans plus the time
outside every span add up to the wall time of the iteration.
"""
from __future__ import annotations

import csv
import importlib
import sys
from collections import Counter
from time import perf_counter

from mpmath import mp

# (module, attribute, span name); "Class.method" patches the class
ENTRY_POINTS = (
    ("series", "mul", "series.mul"),
    ("series", "invert", "series.invert"),
    *(("series", name, "series.other")
      for name in ("add", "sub", "scalar_mul", "add_scalar", "pow_int", "shift",
                   "scale_argument", "series_f", "series_phi", "series_psi",
                   "check_entry24")),
    ("quotient", "EtaQuotient.to_series", "quotient.to_series"),
    ("blocks", "_sum_block", "blocks.sum"),
    ("blocks", "nome", "blocks.nome"),
    *(("blocks", name, "blocks.eval")
      for name in ("eval_block", "eval_eta_quotient", "eval_series_at")),
    ("precision", "compute_checked", "precision.checked"),
    ("verify", "verify_series", "verify.series"),
    ("verify", "verify_numeric", "verify.numeric"),
    ("verify", "verify_multiplier13", "verify.multiplier13"),
    ("products", "a_numeric", "products"),
    ("products", "b_numeric", "products"),
    ("invariants", "g_numeric", "invariants"),
    ("invariants", "G_numeric", "invariants"),
    ("invariants", "registry_lookup", "invariants"),
    ("invariants", "solve_companion", "invariants.companion"),
    ("radicals", "eval_radical", "radicals.eval"),
    ("radicals", "load_builtin_registry", "radicals.parse"),
    ("radicals", "parse_registry", "radicals.parse"),
    ("radicals", "verify_corollary", "radicals.verify"),
    ("pipeline", "lambda_value", "pipeline.lambda"),
    ("pipeline", "solve_pair", "pipeline.solve"),
    ("pipeline", "reproduce_corollary", "pipeline.reproduce"),
    ("catalogue", "load_builtin", "catalogue.parse"),
    ("catalogue", "parse_catalogue", "catalogue.parse"),
    ("cli", "main", "cli"),
    ("report", "render_text", "report.render"),
    ("report", "RunReport.to_json", "report.render"),
)
CHECK_SPAN = "bench.check"
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in ENTRY_POINTS)) + (CHECK_SPAN,)
TERM_STREAMS = ("_terms_f", "_terms_phi", "_terms_psi")

COUNTERS = (("series.term_pairs", "count"), ("blocks.terms", "count"),
            ("precision.attempts", "count"), ("precision.escalations", "count"),
            ("precision.first_try_ratio", "ratio"),
            ("precision.max_working_digits", "digits"),
            ("products.forms", "count"), ("invariants.g.calls", "count"),
            ("radicals.registry_parses", "count"),
            ("pipeline.lambda_rebuilds", "count"))
RUN_METRICS = (("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
               ("trace.overhead_ratio", "ratio"), ("trace.unattributed_s", "s"))
PER_LAYER_UNITS = dict(
    [(f"{name}.{kind}", unit) for name in SPAN_NAMES
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + list(COUNTERS) + list(RUN_METRICS))


# ---------------------------------------------------------------------------
# counting hooks: each takes the counter and the original, returns a stand-in
# ---------------------------------------------------------------------------

def _count_term_pairs(counts, mul):
    def counted(a, b):
        counts["series.term_pairs"] += len(a.coeffs) * len(b.coeffs)
        return mul(a, b)
    return counted


def _count_attempts(counts, compute_checked):
    # attempts are counted by wrapping the builder compute_checked retries
    def counted(spec, builder):
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            if mp.dps > counts["precision.max_working_digits"]:
                counts["precision.max_working_digits"] = mp.dps
            return builder()
        try:
            return compute_checked(spec, attempt)
        finally:
            counts["precision.attempts"] += attempts
            counts["precision.first_try"] += attempts == 1
    return counted


def _count_forms(counts, evaluate):
    def counted(*args, **kwargs):
        value = evaluate(*args, **kwargs)
        counts["products.forms"] += len(value.forms_checked)
        return value
    return counted


def _count_calls(key):
    def hook(counts, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted
    return hook


def _count_terms(counts, make_stream):
    def counted(sign):
        for term in make_stream(sign):
            counts["blocks.terms"] += 1
            yield term
    return counted


HOOKS = {
    ("series", "mul"): _count_term_pairs,
    ("precision", "compute_checked"): _count_attempts,
    ("products", "a_numeric"): _count_forms,
    ("products", "b_numeric"): _count_forms,
    ("invariants", "g_numeric"): _count_calls("invariants.g.calls"),
    ("radicals", "parse_registry"): _count_calls("radicals.registry_parses"),
}


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "thetaprod" or name.startswith("thetaprod.")]


class Tracer:
    """Records spans [name, start, end, parent index, check id] in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.check = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name, fn, args, kwargs):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.check]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = _program_modules()
        for module, attr, name in ENTRY_POINTS:
            mod = importlib.import_module(f"thetaprod.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                self._set(cls, method, self._wrapper(name, vars(cls)[method]))
                continue
            original = getattr(mod, attr)
            hook = HOOKS.get((module, attr))
            inner = original if hook is None else hook(self.counts, original)
            wrapper = self._wrapper(name, inner)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        blocks = importlib.import_module("thetaprod.blocks")
        for stream in TERM_STREAMS:
            counted = _count_terms(self.counts, getattr(blocks, stream))
            self._set(blocks, stream, counted)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        """Spans and counts recorded since the last take; both restart empty.
        The hooks hold the counter itself, so it is cleared in place."""
        spans, counts = self.spans, Counter(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced iteration (without the trace.* ones)."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for (name, *_), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
    for key, _ in COUNTERS:
        out[key] = counts[key]
    checked = out["precision.checked.calls"]
    out["precision.escalations"] = counts["precision.attempts"] - checked
    # with no compute_checked call nothing was retried
    out["precision.first_try_ratio"] = (
        counts["precision.first_try"] / checked if checked else 1.0)
    out["pipeline.lambda_rebuilds"] = sum(
        1 for name, _, _, parent, _ in spans
        if name == "pipeline.lambda" and parent >= 0
        and spans[parent][0] == "pipeline.solve")
    return out


def write_spans(path, iterations):
    """One CSV row per span; `iterations` is a list of span lists."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["iteration", "index", "name", "start", "end",
                      "parent", "check"])
        for it, spans in enumerate(iterations):
            for index, (name, start, end, parent, check) in enumerate(spans):
                out.writerow([it, index, name, repr(start), repr(end),
                              parent, check])
