"""The percentile rule: a percentile is reported only when at least ten
samples lie beyond it.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import percentile  # noqa: E402


def test_median_needs_twenty_samples():
    assert percentile([float(i) for i in range(19)], 0.5) is None
    assert percentile([float(i) for i in range(1, 21)], 0.5) == 10.0


def test_p99_needs_a_thousand_samples():
    assert percentile([float(i) for i in range(999)], 0.99) is None
    samples = [float(i) for i in range(1, 1001)]
    value = percentile(samples, 0.99)
    assert value == 990.0
    assert sum(1 for x in samples if x > value) == 10


def test_percentile_is_order_free_and_empty_is_none():
    samples = [5.0, 1.0, 3.0] * 10
    assert percentile(samples, 0.5) == percentile(sorted(samples), 0.5) == 3.0
    assert percentile([], 0.5) is None

