"""Self-test of the benchmark at smoke size (series order 240, 60 digits, a
few seeded points per workload):

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())
SERIES_COUNTS = ("series.mul.calls", "series.term_pairs", "series.invert.calls",
                 "series.other.calls", "quotient.to_series.calls",
                 "verify.series.calls")


@pytest.mark.parametrize("size", ["full", "smoke"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload, size):
    def text(seed):
        return json.dumps(workloads.make_inputs(workload, seed, size),
                          sort_keys=True)
    same = {text(7) for _ in range(2)}
    other = text(8)
    assert len(same) == 1
    assert other not in same


def test_declared_names_match_the_harness():
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert list(LAYERS["workloads"]) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == tracing.PER_LAYER_UNITS
    grouped = [name for group in LAYERS["per_layer"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(tracing.PER_LAYER_UNITS)


@pytest.fixture(scope="module")
def traced():
    return {w: run.measure(w, 3, 0.01, trace=True, size="smoke")
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    record = run.measure(workload, 3, 0.01, trace=False, size="smoke").record
    assert record["correct"] and record["failed"] == 0
    assert {k: m["unit"] for k, m in record["metrics"].items()} \
        == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(traced, workload):
    record = traced[workload].record
    assert record["correct"] and record["failed"] == 0
    assert {k: m["unit"] for k, m in record["metrics"].items()} \
        == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_of_a_check_fit_in_its_wall_time(traced, workload):
    result = traced[workload]
    for spans, check_ms in zip(result.spans, result.check_ms):
        per_check = defaultdict(float)
        for span, own in zip(spans, tracing.self_times(spans)):
            if span[4] >= 0:
                per_check[span[4]] += own
        assert sorted(per_check) == list(range(len(check_ms)))
        for check, total in per_check.items():
            assert 0 < total <= check_ms[check] / 1000


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_series_layer_runs_only_on_suite_deep(traced, workload):
    metrics = traced[workload].record["metrics"]
    counts = [metrics[name]["value"] for name in SERIES_COUNTS]
    if workload == "suite-deep":
        assert all(counts)
    else:
        assert not any(counts)
        assert metrics["blocks.sum.calls"]["value"] > 0


def test_tracing_restores_the_program():
    import thetaprod
    from thetaprod import cli, series
    before = (series.mul, cli.verify_series, thetaprod.PowerSeries.__mul__,
              thetaprod.RunReport.to_json)
    tracer = tracing.Tracer()
    tracer.install()
    assert series.mul is not before[0]
    tracer.uninstall()
    assert (series.mul, cli.verify_series, thetaprod.PowerSeries.__mul__,
            thetaprod.RunReport.to_json) == before
