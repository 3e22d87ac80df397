"""Summary arithmetic for the benchmark: percentiles, tails and ratios.

Kept free of numpy and of the package under test so that its unit tests
run on their own.
"""

from __future__ import annotations

import math
import statistics

# Percentiles a tail may be reported at, lowest first. A fixed ladder keeps
# two runs with slightly different sample counts on the same percentile.
# It stops at 95: on a shared 2-core machine the higher percentiles of a
# 200-microsecond scorer round trip are set by scheduler stalls, whose rate
# drifts; p99.9 moved by a factor of ten and p99 by 40% between equal runs.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = math.ceil(round(p / 100.0 * len(xs), 9))
    return xs[max(rank, 1) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(math.ceil(round(p / 100.0 * n, 9)), 1)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it,
    or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the reportable tail.

    Falls back to the maximum (percentile 100) when the sample is too
    small for any ladder percentile; the caller records the count.
    """
    n = len(values)
    p = tail_percentile(n)
    if p is None:
        return max(values), 100.0, n
    return percentile(values, p), p, n


def median(values) -> float:
    return statistics.median(values)


def ratio(part: float, base: float) -> float:
    """part / base, defined as 0 when the base is 0 (the layer did no work)."""
    return part / base if base else 0.0


def covered(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    direct children cover.

    ``spans`` is a sequence of (start, end, parent_index) with parent_index
    None for a root. Children are clipped to their parent's interval.
    """
    kids: dict[int, list[tuple[float, float]]] = {}
    for s, e, parent in spans:
        if parent is not None:
            kids.setdefault(parent, []).append((s, e))
    out = []
    for i, (s, e, _) in enumerate(spans):
        inner = [(max(cs, s), min(ce, e)) for cs, ce in kids.get(i, ())
                 if min(ce, e) > max(cs, s)]
        out.append((e - s) - covered(inner))
    return out
