"""Interpreter speed reference, sampled while the benchmark runs.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by 10-30% within seconds.  A fixed pure-Python
kernel, run every ``INTERVAL_S`` from a timer signal in the benchmark's own
thread, samples that speed across the whole run.  Every time is then
reported in seconds at the speed at which the kernel takes ``NOMINAL_S``,
using the speed of the moment it was measured (:class:`Timeline`).  A change
to the program does not touch the kernel, so it moves the scaled times as
much as the raw ones, while the machine's drift mostly cancels: on the
2-core box, the spread of regions-offstrip's wall_s between runs was about
15% raw, 8% with one speed factor per run, and 3% with this timeline.  The kernel mixes the operations
the program spends its time on (tuple-keyed dicts and Fractions as in the
prover, small validated objects with outward rounding as in the interval
code), because a plain arithmetic loop tracks the drift less well.

Time spent inside the sampler is excluded from every measurement through
:meth:`SpeedReference.clock`.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
BIN_S = 0.25
NOMINAL_S = 1.5e-3  # the kernel's typical time on the 2-core box the bounds were set on
KERNEL_LOOPS = 350
TRIM = 0.1


@dataclass(frozen=True, slots=True)
class _Pair:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or self.lo > self.hi:
            raise ValueError("invalid pair")

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(
            math.nextafter(self.lo + other.lo, -math.inf),
            math.nextafter(self.hi + other.hi, math.inf),
        )

    def __mul__(self, other: "_Pair") -> "_Pair":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Pair(math.nextafter(min(p), -math.inf), math.nextafter(max(p), math.inf))


_POOL = [_Pair(0.1 + i * 1e-3, 0.2 + i * 1e-3) for i in range(512)]


def kernel() -> _Pair:
    """A fixed mix of dict, Fraction and small-object work."""
    table: dict[tuple[int, int], object] = {}
    acc = _Pair(0.0, 0.0)
    for i in range(KERNEL_LOOPS):
        key = (i % 13, i % 7)
        if i % 10 == 0:
            table[key] = table.get(key, Fraction(0)) + Fraction(i % 5, 3)
        else:
            table[key] = table.get(key, 0)
        a, b = _POOL[i & 511], _POOL[(i * 7) & 511]
        acc = _Pair(0.0, 0.0) + a * b if i % 50 == 0 else a * b + acc
    return acc


class SpeedReference:
    """Timer-driven kernel samples and a clock that excludes them."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (clock time, kernel seconds)
        self._spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # A collection triggered by the program's allocations is the
        # program's cost, not a change of speed.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append((start - self._spent, elapsed))
        self._spent += elapsed

    def clock(self) -> float:
        """perf_counter() minus the time the sampler has taken so far."""
        return perf_counter() - self._spent

    def __enter__(self) -> "SpeedReference":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False



class Timeline:
    """Maps clock intervals to seconds at the reference speed.

    The run is cut into bins of BIN_S; each bin's speed factor is NOMINAL_S
    over the trimmed mean of the kernel samples taken in it (a bin without
    samples borrows its nearest neighbour's).  A measured interval is the
    sum of its overlap with each bin times that bin's factor, so a round or
    a single call is scaled by the speed at the moment it ran.
    """

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("no kernel samples to build a timeline from")
        bins: dict[int, list[float]] = {}
        for at, elapsed in samples:
            bins.setdefault(math.floor(at / BIN_S), []).append(elapsed)
        self._factor = {b: NOMINAL_S / _trimmed_mean(times) for b, times in bins.items()}
        self._bins = sorted(self._factor)

    def _bin_factor(self, b: int) -> float:
        if b not in self._factor:
            i = bisect.bisect_left(self._bins, b)
            b = min(self._bins[max(0, i - 1) : i + 1], key=lambda k: abs(k - b))
        return self._factor[b]

    def duration(self, start: float, end: float) -> float:
        total = 0.0
        b = math.floor(start / BIN_S)
        while start < end:
            edge = min(end, (b + 1) * BIN_S)
            if edge > start:
                total += (edge - start) * self._bin_factor(b)
                start = edge
            b += 1
        return total


def _trimmed_mean(times: list[float]) -> float:
    """Mean without the top and bottom TRIM, so that one stall does not move it."""
    times = sorted(times)
    cut = int(len(times) * TRIM)
    return statistics.mean(times[cut : len(times) - cut])
