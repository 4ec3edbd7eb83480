"""Order statistics for the benchmark: medians, percentiles, spreads.

A tail percentile is only as trustworthy as the number of samples that
lie beyond it, so :func:`percentile` refuses to report one that has fewer
than ``min_beyond`` samples above its rank (the p95 of 50 samples is
decided by two or three values and moves from run to run).
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples required beyond a reported percentile.
MIN_BEYOND = 10


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Returns ``None`` when fewer than ``min_beyond`` samples lie strictly
    beyond the percentile's rank ``q/100 * (n - 1)``: with the default,
    the p50 needs 20 samples, the p95 182 and the p99 902.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile rank must be in (0, 100), got {q!r}")
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n == 0:
        return None
    pos = q / 100.0 * (n - 1)
    lo = math.floor(pos)
    if n - 1 - lo < min_beyond:
        return None
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not samples:
        raise ValueError("median of an empty sample")
    return float(statistics.median(samples))


def iqr(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile.

    Uses :func:`statistics.quantiles` with ``n=4`` (its default,
    exclusive method).  A single sample has no spread (0.0).
    """
    xs = [float(x) for x in samples]
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def quartile_spread(samples: Sequence[float]) -> float:
    """:func:`iqr` over the median; a zero median with any spread is
    infinitely spread."""
    spread = iqr(samples)
    med = median(samples) if len(samples) else 0.0
    if med == 0.0:
        return 0.0 if spread == 0.0 else math.inf
    return spread / abs(med)
