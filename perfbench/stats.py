"""Order statistics used by every metric the benchmark reports."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Sequence

__all__ = ["MIN_TAIL_SAMPLES", "Histogram", "summary"]

# A reported percentile must have at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class Histogram:
    """Every value added, counted in logarithmic buckets 1/1024 of a
    doubling wide (0.07 %), so percentiles cover every call of a run in
    bounded memory."""

    STEPS = 1024  # buckets per doubling

    def __init__(self):
        self.buckets: Counter[int] = Counter()
        self.count = 0

    def add(self, values: Sequence[float], scale: float = 1.0) -> None:
        """Count each of ``values`` times ``scale``; values below 1 count as 1."""
        self.buckets.update(int(math.log2(max(v * scale, 1)) * self.STEPS) for v in values)
        self.count += len(values)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile, as the middle of its bucket.

        Refuses (ValueError) when fewer than ``MIN_TAIL_SAMPLES`` values lie
        beyond the requested rank, so a tail figure is never one outlier.
        """
        if not 0 < pct < 100:
            raise ValueError(f"percentile {pct} outside (0, 100)")
        n = self.count
        beyond = math.floor(n * (100 - pct) / 100 + 1e-9)
        if beyond < MIN_TAIL_SAMPLES:
            raise ValueError(
                f"p{pct:g} of {n} samples has {beyond} beyond it; need {MIN_TAIL_SAMPLES}"
            )
        rank = max(1, math.ceil(n * pct / 100 - 1e-9))
        seen = 0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if seen >= rank:
                return 2 ** ((key + 0.5) / self.STEPS)
        raise AssertionError("unreachable: rank <= count")


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and relative inter-quartile spread of run values,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "iqr_share": spread}
