"""Summary statistics with the benchmark's percentile rule.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it: a p99 needs 1,000 samples, a p90 needs 100.  Every percentile is
reported together with its sample count.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    value: float
    samples: int
    beyond: int


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` sorted samples lie above the pct-th percentile."""
    return count - math.ceil(count * pct / 100.0)


def percentile(samples, pct: float) -> Percentile | None:
    """Nearest-rank percentile, or None when fewer than MIN_BEYOND lie beyond.

    The median (pct = 50) uses statistics.median and is exempt from the rule.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        return None
    if pct == 50:
        return Percentile(statistics.median(ordered), count, count // 2)
    beyond = samples_beyond(count, pct)
    if beyond < MIN_BEYOND:
        return None
    rank = max(1, math.ceil(count * pct / 100.0))
    return Percentile(ordered[rank - 1], count, beyond)


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0
