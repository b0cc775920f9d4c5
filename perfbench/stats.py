"""Percentiles, the tail rule, and process resource usage."""

from __future__ import annotations

import math
import resource

#: Percentiles the tail rule may pick, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least *beyond* samples above it.

    ``n * (1 - p/100)`` samples lie beyond percentile *p*; with 100 samples
    the answer is 90, with 1000 it is 99, and under 20 samples no
    percentile qualifies (None).
    """
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= beyond - 1e-9:
            return pct
    return None


def cpu_seconds() -> float:
    """User + system CPU time of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def max_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
