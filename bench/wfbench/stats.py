"""Tail latency: the highest percentile with a known number of samples beyond it."""

from __future__ import annotations

# Percentiles tried for the tail, in per mille, highest first. The 95th
# is there for sweep-planar's 200-300 ops a run: when a neighbour on the
# shared host slows a few percent of them, the p90 falls on the edge of
# that slow group and jumps between runs, while the p95 lies inside it.
TAIL_LADDER_PER_MILLE = (999, 990, 950, 900, 500)
MIN_BEYOND = 10


def _rank_index(per_mille: int, n: int) -> int:
    """0-based nearest-rank index of a percentile given in per mille."""
    return max((per_mille * n + 999) // 1000 - 1, 0)


def tail_pick(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, beyond)``. The percentile is taken from
    the ladder 99.9 / 99 / 95 / 90 / 50 (nearest rank). Runs too short for
    even the median to have ten samples beyond it fall back to the order
    statistic with exactly ten beyond, and runs of ten samples or fewer
    to the maximum; ``beyond`` then tells how many samples lie above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail_pick needs at least one sample")
    for per_mille in TAIL_LADDER_PER_MILLE:
        idx = _rank_index(per_mille, n)
        if n - 1 - idx >= MIN_BEYOND:
            return ordered[idx], per_mille / 10.0, n - 1 - idx
    idx = n - 1 - MIN_BEYOND if n > MIN_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx

