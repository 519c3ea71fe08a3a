"""Order statistics used by the benchmark's reports.

Timings are reported as a median plus the highest percentile that still has
at least ten samples beyond it, so a tail figure is never read off a handful
of points.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

# Candidate percentiles, in per mille so the rank arithmetic stays exact.
_LEVELS_PER_MILLE = (999, 990, 900, 500)
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], per_mille: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least the given
    share of samples at or below it."""
    ordered = sorted(samples)
    rank = -(-per_mille * len(ordered) // 1000)  # ceil
    return ordered[max(rank, 1) - 1]


def high_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(level in percent, value) of the highest candidate percentile with at
    least ``MIN_BEYOND`` samples strictly beyond its rank, or None when even
    the median has fewer than that beyond it."""
    n = len(samples)
    for level in _LEVELS_PER_MILLE:
        rank = -(-level * n // 1000)
        if n - rank >= MIN_BEYOND:
            return level / 10.0, nearest_rank(samples, level)
    return None


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def describe_ms(samples_s: Sequence[float]) -> str:
    """Human-readable 'p50 .. ms, pNN .. ms (n=..)' for samples in seconds."""
    if not samples_s:
        return "no samples"
    text = f"p50 {median(samples_s) * 1e3:.3f} ms"
    high = high_percentile(samples_s)
    if high is not None and high[0] > 50:
        text += f", p{high[0]:g} {high[1] * 1e3:.3f} ms"
    return text + f" (n={len(samples_s)})"
