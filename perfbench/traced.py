"""The traced run: per-layer metrics.

It sets up two identical pipelines.  One serves every request through the
``Pipeline`` API, untraced, as the end-to-end run does.  The other serves
the same requests, in the same order, composed from the public calls of
each layer in the order the pipeline makes them, with a span around each
call.  The composed outputs must equal the ``Pipeline`` outputs, and the
composed training loop must end at the weights ``fit_epoch`` reaches.
Layer self times, counts, coverage of each phase's wall clock and the
tracing overhead come from the spans.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.api import Pipeline
from repro.config import EngineConfig
from repro.data.trajectory import MapMatchedPoint
from repro.matching.base import reproject_onto_route
from repro.matching.mma.features import stack_encoded
from repro.nn import bce_with_logits
from repro.nn.tensor import no_grad
from repro.recovery.trmma.encoder import build_point_features, route_attributes
from repro.recovery.trmma.model import build_example

from checks import Checks, same_recovered
from measure import host, metric
from spans import Tracer
from stats import per_1k
from system import Outcomes, Timings, serve, set_up, weights
from workloads import CHUNK_SIZE, TRAIN_SLICE, Workload

PHASES = ("train_mma", "train_trmma", "match", "recover")

#: Units of the metrics divided by the host factor (see hostspeed.py).
TIME_UNITS = ("s", "s/1k", "us")


def composed_mma_epoch(tracer: Tracer, pipeline: Pipeline, samples, first: int) -> None:
    """``MMAMatcher.fit_epoch`` at ``batch_size=1`` over ``samples``, one
    span per layer call."""
    matcher = pipeline.matcher
    matcher.model.train()
    with tracer.span("phase.train_mma"):
        for k, sample in enumerate(samples, first):
            with tracer.span("nn.mma.encode", [k]):
                encoded = matcher.encoder.encode(sample.sparse)
                labels = matcher.encoder.labels(encoded, sample.gt_segments)
            with tracer.span("nn.mma.forward", [k]):
                loss = bce_with_logits(matcher.model(encoded), labels)
            with tracer.span("nn.mma.backward", [k]):
                matcher.optimizer.zero_grad()
                loss.backward()
            with tracer.span("nn.mma.step", [k]):
                matcher.optimizer.step()
            loss.item()


def composed_trmma_epoch(tracer: Tracer, pipeline: Pipeline, samples, first: int) -> None:
    """``TRMMARecoverer.fit_epoch`` at ``batch_size=1`` over ``samples``."""
    recoverer = pipeline.recoverer
    recoverer.model.train()
    with tracer.span("phase.train_trmma"):
        for k, sample in enumerate(samples, first):
            with tracer.span("nn.trmma.example", [k]):
                example = build_example(recoverer.network, sample)
            with tracer.span("nn.trmma.forward", [k]):
                loss = recoverer.model.training_loss(example)
            if loss.size and float(loss.data) > 0.0:
                with tracer.span("nn.trmma.backward", [k]):
                    recoverer.optimizer.zero_grad()
                    loss.backward()
                with tracer.span("nn.trmma.step", [k]):
                    recoverer.optimizer.step()


def train_side_by_side(tracer: Tracer, traced) -> Callable:
    """A ``set_up`` training hook: each ``fit_epoch`` slice of the reference
    pipeline is followed by the composed loop over the same samples on the
    traced pipeline, so both see the same moments of the host."""

    def train(workload: Workload, dataset, pipeline: Pipeline, timings: Timings) -> None:
        size = TRAIN_SLICE
        for first in range(0, len(dataset.train), size):
            part = dataset.train[first : first + size]
            for phase, model, composed in (
                ("mma_train", pipeline.matcher, composed_mma_epoch),
                ("trmma_train", pipeline.recoverer, composed_trmma_epoch),
            ):
                def reference() -> None:
                    start = time.perf_counter()
                    model.fit_epoch(replace(dataset, train=part))
                    timings.add(phase, time.perf_counter() - start, len(part))

                def traced_part() -> None:
                    composed(tracer, traced.pipeline,
                             traced.dataset.train[first : first + size], first)

                # Alternate which side goes first, so neither always runs
                # on caches the other just filled.
                order = (reference, traced_part)
                for step in order if (first // size) % 2 == 0 else order[::-1]:
                    step()

    return train


class Composer:
    """``match`` and ``recover`` composed from layer calls, with counters."""

    def __init__(self, tracer: Tracer, pipeline: Pipeline, batch_size: int) -> None:
        self.tracer = tracer
        self.matcher = pipeline.matcher
        self.recoverer = pipeline.recoverer
        self.network = pipeline.matcher.network
        self.batch_size = batch_size
        self.counts: Dict[str, int] = defaultdict(int)
        self.probes: List[Tuple[str, Sequence[int], object]] = []

    def match_points(self, trajectories, ids) -> List[List[int]]:
        span, matcher = self.tracer.span, self.matcher
        matcher.model.eval()
        with span("mma.encode", ids):
            encoded = matcher.encoder.encode_batch(trajectories)
        self.counts["points"] += sum(e.length for e in encoded)
        xy = np.array([[p.x, p.y] for t in trajectories for p in t])
        self.probes.append(("knn", ids, xy))
        results: List[List[int]] = [[] for _ in encoded]
        buckets: Dict[int, List[int]] = {}
        for i, e in enumerate(encoded):
            buckets.setdefault(e.length, []).append(i)
        with span("mma.forward", ids), no_grad():
            for indices in buckets.values():
                for start in range(0, len(indices), self.batch_size):
                    chunk = indices[start : start + self.batch_size]
                    batch = stack_encoded([encoded[i] for i in chunk])
                    rows = matcher.model.predict_segments_batch(batch)
                    self.counts["forward_calls"] += 1
                    self.counts["forward_rows"] += len(chunk)
                    for i, row in zip(chunk, rows):
                        results[i] = [int(e) for e in row]
        return results

    def match(self, trajectories, ids) -> List[List[int]]:
        routes = []
        for i, segments in zip(ids, self.match_points(trajectories, ids)):
            with self.tracer.span("routing.stitch", [i]):
                routes.append(self.matcher.stitch(segments))
        return routes

    def recover(self, trajectories, epsilon: float, ids) -> list:
        span, network = self.tracer.span, self.network
        model = self.recoverer.model
        results = []
        all_segments = self.match_points(trajectories, ids)
        for i, trajectory, segments in zip(ids, trajectories, all_segments):
            with span("recover.reproject", [i]):
                observed = [
                    MapMatchedPoint(edge_id=e, ratio=network.project_onto(e, p.x, p.y), t=p.t)
                    for p, e in zip(trajectory, segments)
                ]
            with span("recover.stitch", [i]):
                route = self.matcher.stitch(segments)
            with span("recover.reproject", [i]):
                observed = reproject_onto_route(network, trajectory, observed, route)
            with span("trmma.decode", [i]), no_grad():
                recovered = model.decode(network, trajectory, observed, route, epsilon)
            self.counts["decode_steps"] += len(recovered) - len(trajectory)
            self.probes.append(("encoder", [i], (trajectory, observed, route)))
            results.append(recovered)
        return results

    def run_probes(self) -> None:
        """Time, as separate calls on the same inputs, two parts of a layer:
        the k-NN query inside ``encode_batch`` and the DualFormer encoder
        inside ``decode``.  Probes run outside the phase spans."""
        span, network = self.tracer.span, self.network
        for kind, ids, data in self.probes:
            if kind == "knn":
                with span("probe.spatial.knn", ids):
                    network.nearest_segments_batch(data, k=self.matcher.encoder.k_c)
                continue
            trajectory, observed, route = data
            features = build_point_features(network, trajectory, list(observed))
            segments = np.asarray([a.edge_id for a in observed])
            attrs = route_attributes(network, route)
            with span("probe.trmma.encoder", ids), no_grad():
                self.recoverer.model.encoder(features, segments, np.asarray(route), attrs)
        self.probes.clear()


class TracedCalls:
    """Serves each request twice and checks the two agree: through the
    ``Pipeline``, untraced, and through the traced composition."""

    def __init__(self, tracer: Tracer, composer: Composer, pipeline: Pipeline,
                 checks: Checks) -> None:
        self.tracer, self.composer, self.checks = tracer, composer, checks
        self.pipeline = pipeline
        self.untraced: Dict[str, List[float]] = defaultdict(list)

    def _reference(self, kind: str, call):
        start = time.perf_counter()
        out = call()
        self.untraced[kind].append(time.perf_counter() - start)
        return out

    def match(self, trajectories, ids):
        reference = self._reference(
            "match", lambda: self.pipeline.match(trajectories))
        with self.tracer.span("phase.match", ids):
            out = self.composer.match(trajectories, ids)
        self.composer.run_probes()
        self.checks.expect("composed match == Pipeline.match", out == reference)
        return reference

    def recover(self, trajectories, epsilon, ids):
        reference = self._reference(
            "recover", lambda: self.pipeline.recover(trajectories, epsilon))
        with self.tracer.span("phase.recover", ids):
            out = self.composer.recover(trajectories, epsilon, ids)
        self.composer.run_probes()
        self.checks.expect("composed recover == Pipeline.recover",
                           same_recovered(out, reference))
        return reference


def engine_probe(tracer: Tracer, setup, checks: Checks) -> Dict[str, float]:
    """Start a 2-worker engine over the trained weights and time one warm
    32-trajectory slice through it and through the serial pipeline; the two
    must give the same outputs."""
    serial = setup.pipeline
    parallel = Pipeline.from_components(
        serial.matcher, serial.recoverer,
        EngineConfig(engine="parallel", workers=2, chunk_size=CHUNK_SIZE),
    )
    pool = setup.dataset.test
    trajectories = [pool[i].sparse for i in range(32)]
    epsilon = setup.dataset.epsilon
    calls = {
        "match": lambda p: p.match(trajectories),
        "recover": lambda p: p.recover(trajectories, epsilon),
    }
    figures: Dict[str, float] = {}
    with parallel:
        start = time.perf_counter()
        with tracer.span("engine.start"):
            parallel.engine.warm_up()
        figures["start"] = time.perf_counter() - start
        for call in calls.values():  # warm the workers' route caches
            call(parallel)
        for kind, call in calls.items():
            start = time.perf_counter()
            with tracer.span("engine." + kind):
                out = call(parallel)
            figures["parallel_" + kind] = time.perf_counter() - start
            start = time.perf_counter()
            serial_out = call(serial)
            figures["serial_" + kind] = time.perf_counter() - start
            same = (out == serial_out if kind == "match"
                    else same_recovered(out, serial_out))
            checks.expect(f"parallel {kind} == serial {kind}", same)
    figures["chunks"] = len(calls) * -(-len(trajectories) // CHUNK_SIZE)
    return figures


def run_traced(workload: Workload, seed: int, seconds: float,
               out_dir: Path) -> Tuple[dict, dict]:
    tracer = Tracer()
    untraced, traced_timings, outcomes = Timings(), Timings(), Outcomes()
    # The traced pipeline is trained inside the reference set-up.
    traced = set_up(workload, traced_timings, tracer, train=lambda *args: None)
    reference = set_up(workload, untraced,
                       train=train_side_by_side(tracer, traced))
    checks = Checks(reference.dataset.network)
    checks.expect("composed training loop ends at fit_epoch's weights", all(
        np.array_equal(a, b)
        for a, b in zip(weights(reference.pipeline), weights(traced.pipeline))
    ))
    composer = Composer(tracer, traced.pipeline, batch_size=EngineConfig().batch_size)
    calls = TracedCalls(tracer, composer, reference.pipeline, checks)
    planner = traced.pipeline.matcher.planner
    before = planner.cache_info()
    fallbacks = planner.fallbacks
    serve(workload, traced.dataset, calls, seed, untraced, outcomes, checks)
    after = planner.cache_info()
    e = engine_probe(tracer, reference, checks)
    reference.pipeline.close()
    traced.pipeline.close()
    spans_file = out_dir / f"{workload.name}-seed{seed}-spans.jsonl"
    tracer.write(spans_file)

    self_s = tracer.self_times()
    ids_per: Dict[str, int] = defaultdict(int)
    for name, _, _, _, ids in tracer.spans:
        ids_per[name] += len(ids)

    def rate(name: str) -> float:
        return per_1k(self_s.get(name, 0.0), max(ids_per.get(name, 0), 1))

    n_train = len(traced.dataset.train)
    counts = composer.counts
    plans = (after.hits + after.misses) - (before.hits + before.misses)
    coverage = {phase: tracer.coverage("phase." + phase) for phase in PHASES}
    traced_wall = tracer.totals()
    # Overhead per phase: the median, over calls, of the traced call's wall
    # clock over the untraced call's, each pair run back to back.
    untraced_calls = {
        "train_mma": [s for s, _ in untraced.slices["mma_train"][0]],
        "train_trmma": [s for s, _ in untraced.slices["trmma_train"][0]],
        "match": calls.untraced["match"],
        "recover": calls.untraced["recover"],
    }
    ratios = {
        phase: [t / u for t, u in zip(tracer.durations("phase." + phase), base)]
        for phase, base in untraced_calls.items()
    }
    overhead = {phase: statistics.median(r) for phase, r in ratios.items()}
    layer = {
        "data.build_s": (traced_wall["data.build"], "s"),
        "api.from_config_s": (traced_wall["api.from_config"], "s"),
        "nn.mma.encode_s_per_1k": (per_1k(self_s["nn.mma.encode"], n_train), "s/1k"),
        "nn.mma.forward_s_per_1k": (per_1k(self_s["nn.mma.forward"], n_train), "s/1k"),
        "nn.mma.backward_s_per_1k": (per_1k(self_s["nn.mma.backward"], n_train), "s/1k"),
        "nn.mma.step_s_per_1k": (per_1k(self_s["nn.mma.step"], n_train), "s/1k"),
        "nn.trmma.example_s_per_1k": (per_1k(self_s["nn.trmma.example"], n_train), "s/1k"),
        "nn.trmma.forward_s_per_1k": (per_1k(self_s["nn.trmma.forward"], n_train), "s/1k"),
        "nn.trmma.backward_s_per_1k": (per_1k(self_s["nn.trmma.backward"], n_train), "s/1k"),
        "nn.trmma.step_s_per_1k": (per_1k(self_s["nn.trmma.step"], n_train), "s/1k"),
        "mma.encode_s_per_1k": (rate("mma.encode"), "s/1k"),
        "spatial.knn_s_per_1k": (rate("probe.spatial.knn"), "s/1k"),
        "mma.forward_s_per_1k": (rate("mma.forward"), "s/1k"),
        "mma.points": (counts["points"], "count"),
        "mma.forward_calls": (counts["forward_calls"], "count"),
        "mma.rows_per_call": (counts["forward_rows"] / max(counts["forward_calls"], 1), "count"),
        "routing.stitch_s_per_1k": (rate("routing.stitch"), "s/1k"),
        "routing.plans": (plans, "count"),
        "routing.cache_hit_rate": ((after.hits - before.hits) / max(plans, 1), "ratio"),
        "routing.fallbacks": (planner.fallbacks - fallbacks, "count"),
        "routing.cache_entries": (after.size, "count"),
        "recover.stitch_s_per_1k": (rate("recover.stitch"), "s/1k"),
        "recover.reproject_s_per_1k": (per_1k(self_s["recover.reproject"], ids_per["recover.stitch"]), "s/1k"),
        "trmma.decode_s_per_1k": (rate("trmma.decode"), "s/1k"),
        "trmma.encoder_s_per_1k": (rate("probe.trmma.encoder"), "s/1k"),
        "trmma.decode_steps": (counts["decode_steps"], "count"),
        "trmma.decode_us_per_step": (1e6 * self_s["trmma.decode"] / max(counts["decode_steps"], 1), "us"),
        "engine.start_s": (e["start"], "s"),
        "engine.chunks": (e["chunks"], "count"),
        "engine.serial_match_s": (e["serial_match"], "s"),
        "engine.parallel_match_s": (e["parallel_match"], "s"),
        "engine.speedup_match": (e["serial_match"] / e["parallel_match"], "ratio"),
        "engine.serial_recover_s": (e["serial_recover"], "s"),
        "engine.parallel_recover_s": (e["parallel_recover"], "s"),
        "engine.speedup_recover": (e["serial_recover"] / e["parallel_recover"], "ratio"),
        "trace.coverage": (min(coverage.values()), "ratio"),
        **{f"trace.coverage.{p}": (v, "ratio") for p, v in coverage.items()},
        "trace.overhead": (
            statistics.median(r for rs in ratios.values() for r in rs), "ratio"),
        **{f"trace.overhead.{p}": (v, "ratio") for p, v in overhead.items()},
    }
    factor = untraced.host.factor()
    metrics = {
        name: metric(float(v) / factor if unit in TIME_UNITS else float(v), unit)
        for name, (v, unit) in layer.items()
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": 1,
        "engine_workers": 0,
        **host(),
        "host_factor": factor,
        "host_samples": len(untraced.host.samples),
        "raw": {name: float(v) for name, (v, _) in layer.items()},
        "spans": len(tracer.spans),
        "spans_file": spans_file.name,
        "span_counts": tracer.counts(),
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

