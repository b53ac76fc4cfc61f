"""The benchmark's rule for reporting a percentile, and its two rates."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile


def percentile(samples: list[float], q: float) -> float | None:
    """The q-quantile (0 < q < 1, nearest rank) of the samples, or None
    unless at least MIN_BEYOND samples lie beyond it.

    A percentile with fewer samples beyond it says nothing about the tail,
    so p50 needs 20 samples and p99 needs 1,000. Callers print the sample
    count next to every value.
    """
    n = len(samples)
    if n == 0 or math.floor(n * (1.0 - q) + 1e-9) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1]



def harvest_rate(tally) -> float:
    """Source datasets per second over all of a run's harvests."""
    return sum(n for n, _, _ in tally.harvests) / sum(wall for _, wall, _ in tally.harvests)


def mix_rate(tally) -> float:
    """Read-mix operations per second over all of a run's timed blocks."""
    return sum(n for n, _ in tally.mix_blocks) / sum(wall for _, wall in tally.mix_blocks)
