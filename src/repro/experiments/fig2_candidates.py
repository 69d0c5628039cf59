"""Fig. 2: ratio of GPS points whose true segment is in their top-k_c
nearest segments, for k_c = 1..10, on all datasets.

Expected shape: ≈0.5-0.8 at k_c = 1 (two-way twin segments tie on
perpendicular distance), approaching 1.0 by k_c = 10.
"""

from __future__ import annotations

from typing import Dict

from ..matching.mma import candidate_hit_ratio
from ..utils.tables import render_series
from .common import BENCH, ExperimentScale, get_dataset

KC_VALUES = tuple(range(1, 11))


def run(scale: ExperimentScale = BENCH) -> Dict[str, Dict[int, float]]:
    """{dataset: {k_c: hit ratio}} over train+test GPS points."""
    results: Dict[str, Dict[int, float]] = {}
    for name in scale.datasets:
        dataset = get_dataset(name, scale)
        samples = dataset.train + dataset.test
        results[name] = candidate_hit_ratio(
            dataset.network, samples, kc_values=KC_VALUES
        )
    return results


def report(results: Dict[str, Dict[int, float]]) -> str:
    series = {name: [curve[k] for k in KC_VALUES] for name, curve in results.items()}
    return render_series(
        "k_c", list(KC_VALUES), series,
        title="Fig. 2 — ratio of GPS points with true segment in top-k_c",
    )
