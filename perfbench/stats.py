"""Summary arithmetic shared by the benchmark and its steadiness check."""

from __future__ import annotations

import statistics

# A tail percentile is reported only with at least this many samples above it.
TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """Value at the highest percentile that has ``beyond`` samples above it.

    Nearest rank: of ``n`` sorted samples the value at 0-based rank
    ``n - 1 - beyond`` has exactly ``beyond`` samples ranked above it, and
    ``100 * (n - beyond) / n`` percent of the samples at or below it.
    Returns ``(value, percentile, n)``, or None when there are too few
    samples for any such percentile.
    """
    n = len(samples)
    if n <= beyond:
        return None
    rank = n - 1 - beyond
    return sorted(samples)[rank], 100.0 * (rank + 1) / n, n


def ratio(num, den):
    """``(num / den, den)``: every ratio travels with its base.

    An empty base gives 0.0, so the pair still records that nothing was
    counted.
    """
    return (num / den if den else 0.0), den


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
