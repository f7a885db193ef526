"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def min_samples(q: float) -> int:
    """Samples needed for TAIL_SAMPLES of them to lie beyond the q-th percentile."""
    return math.ceil(TAIL_SAMPLES / (1 - q / 100) - 1e-9)

