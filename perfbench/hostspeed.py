"""Host speed reference.

The host this benchmark was written on changes speed by up to a factor of
two within seconds (2 vCPUs sharing their cores with other machines): a
fixed pure-Python loop took 0.25 s to 0.51 s over one minute, with no steal
time, and CPU time followed wall time.  Raw times of identical work spread
by 15-25% from one run to the next.  So the end-to-end times are scaled to a
nominal host: a SIGALRM timer runs a fixed loop every INTERVAL_S, and a
timed stretch is divided by the loop's median time around it over
NOMINAL_S, after the time spent in the loop is taken out.  The loop uses
nothing from the program, so no change to the program can move it.
"""
from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

LOOP = 25_000
NOMINAL_S = 0.001        # the loop's time on the nominal host
INTERVAL_S = 0.05


def sample() -> float:
    """Seconds the reference loop takes now."""
    t0 = perf_counter()
    x = 0
    for i in range(LOOP):
        x += i
    return perf_counter() - t0


def slowdown(samples) -> float:
    """How much slower than nominal the host ran, from loop samples."""
    return statistics.median(samples) / NOMINAL_S


class Sampler:
    """Samples the host speed every INTERVAL_S while entered, from inside
    whatever runs, so long computations get samples from their middle;
    short ones get theirs from tick() calls right before and after."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.tick()

    def tick(self, *_):
        """Take one sample now; also the SIGALRM handler."""
        start = perf_counter()
        self.refs.append(sample())
        self.starts.append(start)
        self.ends.append(perf_counter())

    def paused(self, t0: float, t1: float) -> float:
        """Seconds spent sampling between t0 and t1."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return sum(self.ends[lo:hi]) - sum(self.starts[lo:hi])

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than nominal the host ran from t0 to t1, from the
        samples inside that stretch and the nearest one on each side."""
        lo = max(bisect_left(self.starts, t0) - 1, 0)
        hi = bisect_right(self.starts, t1) + 1
        return slowdown(self.refs[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at nominal host speed, sampling excluded."""
        return (t1 - t0 - self.paused(t0, t1)) / self.slowdown(t0, t1)
