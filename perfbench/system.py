"""One benchmark cycle: set up a trained pipeline, serve requests, measure.

Everything the program does here goes through its public API:
``build_dataset``, ``Pipeline.from_config``, ``fit_epoch`` and
``Pipeline.match`` / ``Pipeline.recover``.  Each timed call is one slice.
Every cycle of a run does the same work in the same order, so a slice's
figure is its median over cycles, and a few slow moments of the host do
not move it.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.api import Pipeline
from repro.config import EngineConfig, MMAConfig, PipelineConfig, TRMMAConfig
from repro.data.datasets import build_dataset
from repro.network.node2vec import Node2VecConfig

from checks import Checks
from hostspeed import HostSpeed
from spans import Tracer
from stats import per_1k
from workloads import (
    GAMMA, N_TRAIN, ONLINE_SLICE, SYSTEM_SEED, TRAIN_SLICE, Workload,
)

#: The experiments' bench-scale model (d_h = 32) and Node2Vec settings.
NODE2VEC = Node2VecConfig(
    dimensions=32, walk_length=12, walks_per_node=2, window=3, negatives=3,
    epochs=1,
)


PIPELINE_CONFIG = PipelineConfig(
    mma=MMAConfig(d0=32, d2=32, node2vec=NODE2VEC),
    trmma=TRMMAConfig(d_h=32, ffn_hidden=128),
    engine=EngineConfig(engine="serial", workers=0),
    seed=SYSTEM_SEED,
)


@dataclass
class Timings:
    """Timed slices of one run, in seconds.

    Every cycle replays the same work in the same order, so slice ``k`` of
    one cycle does exactly the work of slice ``k`` of every other cycle.
    """

    host: HostSpeed = field(default_factory=HostSpeed)
    setup: List[float] = field(default_factory=list)
    build: List[float] = field(default_factory=list)
    from_config: List[float] = field(default_factory=list)
    # phase -> one list per cycle of (seconds, trajectories) slices; the
    # "latency" phase holds single match requests (inf = failed).
    slices: Dict[str, List[List[tuple]]] = field(default_factory=dict)

    def new_cycle(self) -> None:
        for phase in PHASES:
            self.slices.setdefault(phase, []).append([])

    def add(self, phase: str, seconds: float, n: int) -> None:
        self.slices[phase][-1].append((seconds, n))

    def aligned(self, phase: str) -> List[tuple]:
        """Per slice position, the median seconds over cycles (``inf`` if
        the slice failed in any cycle), with the slice's trajectory count."""
        cycles = self.slices[phase]
        out = []
        for k in range(min(len(c) for c in cycles)):
            seconds = [c[k][0] for c in cycles]
            failed = any(math.isinf(s) for s in seconds)
            out.append((math.inf if failed else statistics.median(seconds),
                        cycles[0][k][1]))
        return out


PHASES = ("mma_train", "trmma_train", "match", "recover", "latency")


@dataclass
class Outcomes:
    """Per-trajectory failure accounting."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def call(self, fn: Callable, n: int):
        """Run one pipeline call over ``n`` trajectories; an exception fails
        all of them and the run goes on."""
        self.attempted += n
        try:
            return fn()
        except Exception as exc:  # the run must survive a failing call
            self.failed += n
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


@dataclass
class Setup:
    dataset: object
    pipeline: Pipeline


def weights(pipeline: Pipeline) -> List[np.ndarray]:
    return [
        value.copy()
        for module in (pipeline.matcher.model, pipeline.recoverer.model)
        for value in module.state_dict().values()
    ]


def set_up(workload: Workload, timings: Timings,
           tracer: Optional[Tracer] = None,
           train: Optional[Callable] = None) -> Setup:
    """Data, Node2Vec and one MMA plus one TRMMA epoch.  ``train``
    replaces the fit_epoch slices (the traced run passes its composed
    loop)."""
    tracer = tracer or Tracer()
    timings.new_cycle()
    timings.host.sample()
    start = time.perf_counter()
    with tracer.span("data.build"):
        dataset = build_dataset(
            workload.dataset, n_trips=workload.n_trips, gamma=GAMMA,
            seed=SYSTEM_SEED,
        )
    built = time.perf_counter()
    dataset = replace(dataset, train=dataset.train[:N_TRAIN])
    with tracer.span("api.from_config"):
        pipeline = Pipeline.from_config(
            dataset.network, PIPELINE_CONFIG,
            dataset.transition_statistics(),
        )
    configured = time.perf_counter()
    (train or fit_epoch_slices)(workload, dataset, pipeline, timings)
    timings.setup.append(time.perf_counter() - start)
    timings.build.append(built - start)
    timings.from_config.append(configured - built)
    return Setup(dataset, pipeline)


def fit_epoch_slices(workload: Workload, dataset, pipeline: Pipeline,
                     timings: Timings) -> None:
    """One MMA and one TRMMA epoch as timed ``fit_epoch`` calls over
    consecutive slices of the training split, alternating MMA and TRMMA
    slices so both are sampled across the whole training time.

    At ``batch_size=1`` an epoch is a per-sample loop in split order, and
    TRMMA trains on ground truth without the matcher, so this ends at the
    weights of ``Pipeline.fit(dataset, epochs=1)``."""
    for first in range(0, len(dataset.train), TRAIN_SLICE):
        part = replace(dataset, train=dataset.train[first : first + TRAIN_SLICE])
        for phase, model in (("mma_train", pipeline.matcher),
                             ("trmma_train", pipeline.recoverer)):
            timings.host.sample()
            start = time.perf_counter()
            model.fit_epoch(part)
            timings.add(phase, time.perf_counter() - start, len(part.train))


class PipelineCalls:
    """The untraced request path: ``Pipeline.match`` / ``Pipeline.recover``."""

    def __init__(self, pipeline: Pipeline) -> None:
        self.pipeline = pipeline

    def match(self, trajectories, ids):
        return self.pipeline.match(trajectories)

    def recover(self, trajectories, epsilon, ids):
        return self.pipeline.recover(trajectories, epsilon)


def serve(workload: Workload, dataset, calls, seed: int, timings: Timings,
          outcomes: Outcomes, checks: Checks) -> None:
    """One cycle's requests.  Bulk: the whole test split in seeded order,
    each call of trajectories matched and then recovered.  Online: a closed
    loop of single-trajectory requests; match requests draw at random from
    the trajectories bulk calls have already served (the whole split when
    there are none), so every bulk call meets a cold route cache; recover
    requests walk the split in the seeded order.  Ids index
    ``dataset.test``."""
    pool = dataset.test
    epsilon = dataset.epsilon
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(len(pool))]

    def timed(kind: str, ids: List[int]) -> float:
        """Seconds the call took (inf when it raised)."""
        trajectories = [pool[i].sparse for i in ids]
        if kind == "match":
            fn = lambda: calls.match(trajectories, ids)  # noqa: E731
        else:
            fn = lambda: calls.recover(trajectories, epsilon, ids)  # noqa: E731
        timings.host.sample()
        start = time.perf_counter()
        out = outcomes.call(fn, len(ids))
        elapsed = time.perf_counter() - start
        if out is None:
            return float("inf")
        if kind == "match":
            checks.check_routes(ids, out)
        else:
            checks.check_recovered(pool, ids, out)
        return elapsed

    # Bulk calls are spread evenly through the online stream, so each phase
    # is sampled across the whole serving time.
    n_calls = len(order) // workload.call if workload.call else 0
    bulk_at = {k * workload.online // n_calls: k for k in range(n_calls)}
    every = workload.recover_every
    streams: Dict[str, List[float]] = {"match": [], "recover": []}
    served = 0 if n_calls else len(order)
    for j in range(workload.online):
        if j in bulk_at:
            k = bulk_at[j]
            ids = order[k * workload.call : (k + 1) * workload.call]
            for kind in ("match", "recover"):
                timings.add(kind, timed(kind, ids), len(ids))
            served = (k + 1) * workload.call
        if every and j % every == every - 1:
            kind, i = "recover", order[(j // every) % len(order)]
        else:
            kind, i = "match", order[int(rng.integers(served))]
        elapsed = timed(kind, [i])
        streams[kind].append(elapsed)
        if kind == "match":
            timings.add("latency", elapsed, 1)
    if not workload.call:
        # The online stream is this workload's whole serving phase: its
        # throughput slices are runs of consecutive requests.
        for kind, run in streams.items():
            size = ONLINE_SLICE[kind]
            for k in range(len(run) // size):
                timings.add(kind, sum(run[k * size : (k + 1) * size]), size)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rates(slices: List[tuple]) -> List[float]:
    return [per_1k(seconds, n) for seconds, n in slices]


def match_split(dataset, pipeline: Pipeline, outcomes: Outcomes,
                checks: Checks) -> None:
    """Match the whole test split once, untimed, so ``match_f1`` covers
    every trajectory whatever requests the seed drew."""
    ids = list(range(len(dataset.test)))
    routes = outcomes.call(
        lambda: pipeline.match([t.sparse for t in dataset.test]), len(ids))
    if routes is not None:
        checks.check_routes(ids, routes)
