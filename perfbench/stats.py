"""Summaries of repeated timings: median, quartiles and sample count."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Sequence


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of ``n`` samples, in the samples' unit."""

    median: float
    q1: float
    q3: float
    n: int

    def as_dict(self) -> Dict[str, float]:
        return {"median": self.median, "q1": self.q1, "q3": self.q3, "n": self.n}


def summarise(samples: Sequence[float]) -> Summary:
    """Median and quartiles (``statistics.quantiles`` exclusive method)."""
    values = list(samples)
    if not values:
        raise ValueError("no samples to summarise")
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return Summary(statistics.median(values), q1, q3, len(values))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]; ``inf`` entries (failed
    requests) rank above every finite latency."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: Sequence[float], q: float) -> int:
    """Number of samples strictly ranked above the ``q`` nearest-rank cut."""
    return len(samples) - max(1, math.ceil(q / 100.0 * len(samples)))


def per_1k(seconds: float, trajectories: int) -> float:
    """Seconds per 1000 trajectories."""
    return seconds / trajectories * 1000.0
