"""The untraced run: end-to-end metrics."""

from __future__ import annotations

import gc
import os
import platform
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from checks import Checks
from stats import beyond, per_1k, percentile, summarise
from system import (
    Outcomes, PipelineCalls, Timings, match_split, peak_rss_mb, rates, serve,
    set_up, weights,
)
from workloads import Workload, cycles_for


def host() -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def total_rate(slices) -> float:
    """Seconds per 1000 trajectories over a phase's aligned slices."""
    return per_1k(sum(s for s, _ in slices), sum(n for _, n in slices))


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run_untraced(workload: Workload, seed: int, seconds: float,
                 out_dir: Path) -> Tuple[dict, dict]:
    timings, outcomes = Timings(), Outcomes()
    cycles = cycles_for(seconds)
    checks = None
    first_weights: List[np.ndarray] = []
    for cycle in range(cycles):
        # Every set-up starts from the same heap: the garbage collector's
        # pauses then fall on the same slices in every cycle.
        setup = None
        gc.collect()
        setup = set_up(workload, timings)
        with setup.pipeline:
            if checks is None:
                checks = Checks(setup.dataset.network)
                first_weights = weights(setup.pipeline)
            else:
                checks.expect("set-up repeats the trained weights", all(
                    np.array_equal(a, b)
                    for a, b in zip(first_weights, weights(setup.pipeline))
                ))
            serve(workload, setup.dataset, PipelineCalls(setup.pipeline), seed,
                  timings, outcomes, checks)
            if cycle == cycles - 1:
                match_split(setup.dataset, setup.pipeline, outcomes, checks)
    quality = checks.quality(setup.dataset)

    summaries = {
        "setup_s": summarise(timings.setup),
        "data_build_s": summarise(timings.build),
        "from_config_s": summarise(timings.from_config),
    }
    for phase in ("mma_train", "trmma_train", "match", "recover"):
        summaries[phase + "_slice_s_per_1k"] = summarise(
            rates(timings.aligned(phase)))
    latency = [seconds for seconds, _ in timings.aligned("latency")]
    throughput = {phase: total_rate(timings.aligned(phase))
                  for phase in ("mma_train", "trmma_train", "match", "recover")}
    ok_frac = (outcomes.attempted - outcomes.failed) / outcomes.attempted
    raw = {
        "setup_s": (summaries["setup_s"].median, "s"),
        "mma_train_s_per_1k": (throughput["mma_train"], "s/1k"),
        "trmma_train_s_per_1k": (throughput["trmma_train"], "s/1k"),
        "match_s_per_1k": (throughput["match"], "s/1k"),
        "recover_s_per_1k": (throughput["recover"], "s/1k"),
        "latency_p50_ms": (1000.0 * percentile(latency, 50), "ms"),
        "latency_p99_ms": (1000.0 * percentile(latency, 99), "ms"),
    }
    factor = timings.host.factor()
    metrics = {name: metric(value / factor, unit)
               for name, (value, unit) in raw.items()}
    metrics.update({
        "match_f1": metric(quality["match_f1"], "ratio"),
        "recover_f1": metric(quality["recover_f1"], "ratio"),
        "recover_mae_m": metric(quality["recover_mae_m"], "m"),
        "ok_frac": metric(ok_frac, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    })
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": 0,
        "cycles": cycles,
        "engine_workers": 0,
        **host(),
        "host_factor": factor,
        "host_samples": len(timings.host.samples),
        "raw": {name: value for name, (value, _) in raw.items()},
        "timings": {k: v.as_dict() for k, v in summaries.items()},
        "latency_requests": len(latency),
        "latency_beyond_p99": beyond(latency, 99),
        "quality": quality,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "errors": outcomes.errors,
        "check_failures": checks.report(),
    }
    result = {
        "correct": checks.ok,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    return record, result
