"""Summaries of latency samples."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence, Tuple


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """p99, or the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = max(1, min(math.ceil(0.99 * n), n - 10))
    return ordered[rank - 1], 100.0 * rank / n, n


@dataclass(frozen=True)
class Latency:
    """One part replay's latency samples, in seconds."""

    p50: float
    #: See :func:`tail_percentile`.
    tail: float
    percentile: float
    count: int

    @classmethod
    def of(cls, samples: Sequence[float]) -> "Latency":
        tail, percentile, count = tail_percentile(samples)
        return cls(statistics.median(samples) if samples else 0.0, tail, percentile, count)
