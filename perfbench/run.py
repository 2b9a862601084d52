#!/usr/bin/env python3
"""Benchmark of the thetaprod toolkit.

    python3 perfbench/run.py --workload suite-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run measures one workload (see workloads.py) in this process, on one
thread, repeating it until its iterations have taken --seconds.  Untraced
(--trace 0) it reports the end-to-end metrics; traced (--trace 1) it
alternates untraced iterations with iterations that record spans around
every module's entry points (see tracing.py), and reports the per-layer
metrics.  Every check verdict is checked.  Times are scaled to a nominal
host speed (see hostspeed.py).  The program is imported from the sources
beside this directory.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The inputs, the environment, the raw times
and every failed check go to .perfbench-out/<workload>-seed<seed>-trace<0|1>.json,
spans to a .csv next to it.  Exit status: 0 when every check passed, 1 when
one failed, 2 on a usage error or when there are no sources to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("suite-deep", "numeric-1000", "closed-500")
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "check_p50_ms": "ms",
                    "check_p90_ms": "ms", "peak_rss_mb": "MB"}

# what a user pays before the first check: the import and the builtin data,
# timed inside a fresh interpreter between two host speed samples
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
before = hostspeed.sample()
t0 = time.perf_counter()
import thetaprod
from thetaprod import cli
thetaprod.load_builtin()
thetaprod.load_builtin_registry()
cli.build_parser()
elapsed = time.perf_counter() - t0
print(elapsed / hostspeed.slowdown([before, hostspeed.sample()]))
"""


def setup_sample() -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return float(done.stdout.split()[-1])


def git_commit() -> str | None:
    """Commit of the measured tree when it is a git checkout, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "seed": seed}


@dataclass
class Run:
    record: dict                                        # written as JSON
    spans: list = field(default_factory=list)           # per traced iteration
    check_ms: list = field(default_factory=list)        # per traced iteration


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> Run:
    """Repeat the workload until its iterations have taken `seconds`.

    Times are scaled to the nominal host speed (see hostspeed.py): each
    check by the samples taken during it and right around it, the rest of
    an iteration by the iteration's median slowdown.  wall_s is the median
    scaled iteration; check_p50_ms and check_p90_ms are taken over the
    checks, each at its median scaled time.  Set-up is sampled in fresh
    interpreters spread over the run.  A traced run alternates untraced and
    traced iterations; the tracing overhead is the median ratio of a scaled
    traced iteration to the untraced one before it.  Span self times are
    raw seconds and include the host sampling, about 2%.
    """
    import hostspeed
    import tracing
    import workloads

    loadavg_start = os.getloadavg()
    inputs = workloads.make_inputs(workload, seed, size)
    job = workloads.prepare(workload, inputs)
    verdicts, setup, slowdowns, raw_walls = [], [], [], []
    walls = {False: [], True: []}   # per iteration; untraced ones scaled
    check_runs = []                 # scaled ms of each check, per iteration
    run = Run({})
    tracer = tracing.Tracer() if trace else None
    layers = []

    def iterate(traced: bool):
        with hostspeed.Sampler() as host:
            # no samples around traced checks: they would land in the spans
            checks = (workloads.Checks(tracer) if traced
                      else workloads.Checks(host=host))
            t0 = perf_counter()
            verdicts.extend(job(checks))
            t1 = perf_counter()
        net = [b - a - host.paused(a, b) for a, b in checks.intervals]
        scaled = [host.scaled(a, b) for a, b in checks.intervals]
        raw_walls.append(t1 - t0 - host.paused(t0, t1))
        slowdowns.append(host.slowdown(t0, t1))
        outside = raw_walls[-1] - sum(net)
        walls[traced].append(sum(scaled) + outside / slowdowns[-1])
        if not traced:
            check_runs.append([x * 1000 for x in scaled])
        return checks, t1 - t0

    def sample_setup(progress: float):
        # spread over the run, so that one slow spell does not set them all
        while len(setup) < min(SETUP_RUNS, 1 + int(progress * SETUP_RUNS)):
            setup.append(setup_sample())

    while not walls[trace] or sum(raw_walls) < seconds:
        if not trace:
            sample_setup(sum(raw_walls) / seconds)
            checks, _ = iterate(False)
            continue
        iterate(False)
        tracer.install()
        try:
            checks, elapsed = iterate(True)
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        layer = tracing.layer_metrics(spans, counts)
        layer["trace.unattributed_s"] = elapsed - sum(
            end - begin for _, begin, end, parent, _ in spans if parent < 0)
        layers.append(layer)
        run.spans.append(spans)
        run.check_ms.append(checks.ms)

    per_check = [statistics.median(times) for times in zip(*check_runs)]
    if trace:
        values = {key: statistics.median(layer[key] for layer in layers)
                  for key in layers[0]}
        values["trace.wall_s"] = statistics.median(walls[True])
        values["trace.untraced_wall_s"] = statistics.median(walls[False])
        values["trace.overhead_ratio"] = statistics.median(
            traced / untraced for traced, untraced in zip(walls[True], walls[False]))
        metrics = {key: _metric(values[key], unit)
                   for key, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        sample_setup(1.0)
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(walls[False]),
                  "check_p50_ms": statistics.median(per_check),
                  "check_p90_ms": statistics.quantiles(per_check, n=10)[8],
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {key: _metric(values[key], unit)
                   for key, unit in END_TO_END_UNITS.items()}

    failures = [(label, verdict) for label, verdict in verdicts
                if verdict != "pass"]
    env = environment(seed)
    env["loadavg_start"] = loadavg_start
    env["loadavg_end"] = os.getloadavg()
    env["host_slowdown_per_iteration"] = slowdowns
    run.record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "inputs": inputs,
        "environment": env,
        "iterations": len(walls[False]) + len(walls[True]),
        "checks_per_iteration": len(checks.intervals),
        "wall_s": walls, "raw_wall_s": raw_walls,
        "setup_samples_s": setup, "check_median_ms": per_check,
        "scaled_check_ms": check_runs,
        "fail_ratio": len(failures) / len(verdicts),
        "failures": failures,
        "correct": not failures, "attempted": len(verdicts),
        "failed": len(failures), "metrics": metrics,
    }
    return run


def report(run: Run) -> dict:
    """Print the human-readable lines, write the record; return the result."""
    rec = run.record
    tag = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}"
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(rec, indent=1, default=str) + "\n")
    print(f"{rec['workload']}: seed {rec['seed']}, {rec['iterations']} "
          f"iteration(s) of {rec['checks_per_iteration']} checks, "
          f"trace {rec['trace']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<34} {rec['fail_ratio']:>14.6g} "
          f"({rec['failed']}/{rec['attempted']})")
    for label, verdict in rec["failures"][:20]:
        print(f"  FAILED {label}: {verdict}")
    if run.spans:
        import tracing
        tracing.write_spans(OUT / f"{tag}-spans.csv", run.spans)
    print(f"  record: {record_path.relative_to(ROOT)}")
    return {key: rec[key] for key in ("correct", "attempted", "failed", "metrics")}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.rstrip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("\n".join(lines))
            print(f"{workload}: no result (exit {done.returncode})")
            total["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "thetaprod" / "__init__.py").is_file():
        print(f"error: no thetaprod sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import thetaprod
    if SRC not in Path(thetaprod.__file__).resolve().parents:
        print(f"error: imported thetaprod from {thetaprod.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    result = report(measure(args.workload, args.seed, args.seconds,
                            bool(args.trace)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
