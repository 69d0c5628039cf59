"""TRMMA model: DualFormer encoder + multitask decoder (Algorithm 2).

Training is teacher-forced over ground-truth dense trajectories: the decoder
state advances with the *true* (segment, ratio, time) of every emitted point
while the losses compare its predictions for the missing points against the
truth — binary cross-entropy over the route segments (Eq. 19) plus
λ-weighted MAE over the ratios (Eq. 20-21).

Inference (:meth:`TRMMAModel.decode`) is greedy: each missing point takes
the highest-probability segment in the sub-route from the previously emitted
segment onward (Eq. 17) and the regressed ratio.  It runs on the decoder's
plain-NumPy :class:`~.decoder.DecodeKernel` and computes the positional
priors of a whole gap at once (in bounded chunks of steps).

The decoder heads consume a constant-speed positional prior along the route
(see :mod:`.decoder` for the rationale); this module computes it — segment
offsets relative to the time-interpolated expected travel distance between
the two observed points bracketing each missing point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...data.trajectory import MapMatchedPoint, MatchedTrajectory, Trajectory
from ...network.road_network import RoadNetwork
from ...nn import Module, Tensor, bce_with_logits
from ...utils.rng import SeedLike, make_rng
from ..base import missing_point_counts
from ..route_utils import route_cumulative_lengths, route_index_of_segments
from .decoder import RecoveryDecoder
from .encoder import DualFormerEncoder, build_point_features, route_attributes


@dataclass
class RecoveryExample:
    """A teacher-forcing training example derived from a TrajectorySample."""

    point_features: np.ndarray  # (l, 4)
    point_segments: np.ndarray  # (l,) int
    route: np.ndarray  # (l_R,) int
    route_cum: np.ndarray  # (l_R + 1,) cumulative lengths (metres)
    route_attributes: np.ndarray  # (l_R, 2) [exit signalised, speed-1]
    # Dense sequence, in order.
    dense_route_indices: np.ndarray  # (l_eps,) int
    dense_ratios: np.ndarray  # (l_eps,) float
    dense_times_norm: np.ndarray  # (l_eps,) float in [0, 1]
    dense_expected_offsets: np.ndarray  # (l_eps,) metres along route
    dense_observed: np.ndarray  # (l_eps,) bool


def _point_offsets(
    route_cum: np.ndarray, indices: Sequence[int], ratios: Sequence[float]
) -> np.ndarray:
    """Linear offsets along the route of points given (route index, ratio)."""
    cum = np.asarray(route_cum)
    idx = np.asarray(indices, dtype=np.int64)
    lengths = cum[idx + 1] - cum[idx]
    return cum[idx] + np.asarray(ratios) * lengths


def interpolate_expected_offsets(
    times: np.ndarray,
    observed_mask: np.ndarray,
    observed_offsets: np.ndarray,
) -> np.ndarray:
    """Constant-speed expected offset of every point, interpolating between
    the observed anchors by time (the positional prior's backbone)."""
    obs_times = times[observed_mask]
    return np.interp(times, obs_times, observed_offsets)


#: Largest ratio a point may take: ratios lie in [0, 1).
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _local_ratio(route_cum: np.ndarray, offset: float) -> Tuple[int, float]:
    """(route index, within-segment ratio) of a linear offset."""
    idx = int(np.searchsorted(route_cum, offset, side="right") - 1)
    idx = min(max(idx, 0), len(route_cum) - 2)
    length = max(float(route_cum[idx + 1] - route_cum[idx]), 1e-9)
    ratio = (offset - float(route_cum[idx])) / length
    return idx, float(np.clip(ratio, 0.0, np.nextafter(1.0, 0.0)))


def _ratio_within(route_cum: np.ndarray, index: int, offset: float) -> float:
    """Expected within-segment ratio of segment ``index`` given the
    expected linear ``offset`` (clamped to the segment's span) — the prior
    the ratio head refines, always consistent with the chosen segment."""
    length = max(float(route_cum[index + 1] - route_cum[index]), 1e-9)
    ratio = (offset - float(route_cum[index])) / length
    return min(max(ratio, 0.0), _BELOW_ONE)


def build_example(network: RoadNetwork, sample) -> RecoveryExample:
    """Encode one :class:`TrajectorySample` for teacher-forced training."""
    matched = sample.gt_point_matches
    features = build_point_features(network, sample.sparse, matched)
    dense_segments = [a.edge_id for a in sample.dense]
    indices = route_index_of_segments(sample.route, dense_segments)
    observed = np.zeros(len(sample.dense), dtype=bool)
    observed[np.asarray(sample.observed_indices)] = True

    route_cum = route_cumulative_lengths(network, sample.route)
    all_offsets = _point_offsets(
        route_cum, indices, [a.ratio for a in sample.dense]
    )
    times = np.asarray([a.t for a in sample.dense])
    expected = interpolate_expected_offsets(times, observed, all_offsets[observed])

    t0 = sample.dense[0].t
    horizon = max(sample.dense[-1].t - t0, 1.0)
    return RecoveryExample(
        point_features=features,
        point_segments=np.asarray([a.edge_id for a in matched]),
        route=np.asarray(sample.route),
        route_cum=route_cum,
        route_attributes=route_attributes(network, sample.route),
        dense_route_indices=np.asarray(indices),
        dense_ratios=np.asarray([a.ratio for a in sample.dense]),
        dense_times_norm=(times - t0) / horizon,
        dense_expected_offsets=expected,
        dense_observed=observed,
    )


class TRMMAModel(Module):
    """The full trajectory-recovery network."""

    def __init__(
        self,
        n_segments: int,
        d_h: int = 64,
        n_layers: int = 2,
        n_heads: int = 4,
        ffn_hidden: int = 512,
        ratio_weight: float = 5.0,
        use_fusion: bool = True,
        use_prior: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.encoder = DualFormerEncoder(
            n_segments,
            d_h=d_h,
            n_layers=n_layers,
            n_heads=n_heads,
            ffn_hidden=ffn_hidden,
            use_fusion=use_fusion,
            seed=rng,
        )
        self.decoder = RecoveryDecoder(d_h=d_h, use_prior=use_prior, seed=rng)
        self.ratio_weight = ratio_weight

    # ------------------------------------------------------------------ prior

    #: Width (metres) of the Gaussian bump around the expected position.
    PRIOR_BANDWIDTH_M = 80.0

    #: Bound on the rows (steps × route segments) of one chunk of priors
    #: computed at once, so a huge gap never allocates all its priors.
    PRIOR_CHUNK_ROWS = 1 << 15

    @classmethod
    def _segment_priors(cls, route_cum: np.ndarray, expected_offset) -> np.ndarray:
        """Per-segment prior basis (l_R, 3): signed scaled offset of the
        segment midpoint from the expected travel position, its absolute
        value, and a Gaussian bump peaking at the expected position.

        An array of S expected offsets gives the stacked bases (S, l_R, 3).
        """
        mids = (route_cum[:-1] + route_cum[1:]) / 2.0
        total = max(float(route_cum[-1]), 1.0)
        delta = mids - np.asarray(expected_offset, dtype=float)[..., None]
        signed = delta / total
        bump = np.exp(-((delta / cls.PRIOR_BANDWIDTH_M) ** 2))
        return np.stack([signed, np.abs(signed), bump], axis=-1)

    # ---------------------------------------------------------------- training

    def training_loss(self, example: RecoveryExample) -> Tensor:
        """Teacher-forced loss ``L_seg + λ L_r`` for one trajectory (Eq. 21)."""
        fused = self.encoder(
            example.point_features,
            example.point_segments,
            example.route,
            example.route_attributes,
        )
        hidden = self.decoder.initial_state(fused)
        l_route = len(example.route)

        predicted = ~example.dense_observed
        predicted[0] = False
        all_priors = self._segment_priors(
            example.route_cum, example.dense_expected_offsets[predicted]
        )

        seg_losses: List[Tensor] = []
        ratio_losses: List[Tensor] = []
        for j in range(len(example.dense_route_indices)):
            idx = int(example.dense_route_indices[j])
            ratio = float(example.dense_ratios[j])
            t_norm = float(example.dense_times_norm[j])
            if predicted[j]:
                expected = float(example.dense_expected_offsets[j])
                priors = all_priors[len(seg_losses)]  # this point's row
                prior_ratio = _ratio_within(example.route_cum, idx, expected)
                scores, predicted_ratio = self.decoder.step(
                    hidden, fused, priors, prior_ratio
                )
                labels = np.zeros(l_route)
                labels[idx] = 1.0
                seg_losses.append(bce_with_logits(scores, labels))
                ratio_losses.append((predicted_ratio - ratio).abs().reshape(1).sum())
            # Teacher forcing: advance with the ground-truth point.
            hidden = self.decoder.advance(hidden, fused, idx, ratio, t_norm)

        loss = Tensor(np.zeros(()))
        if seg_losses:
            total_seg = seg_losses[0]
            for extra in seg_losses[1:]:
                total_seg = total_seg + extra
            total_ratio = ratio_losses[0]
            for extra in ratio_losses[1:]:
                total_ratio = total_ratio + extra
            n = float(len(seg_losses))
            loss = total_seg * (1.0 / n) + total_ratio * (self.ratio_weight / n)
        return loss

    # --------------------------------------------------------------- inference

    def decode(
        self,
        network: RoadNetwork,
        trajectory: Trajectory,
        observed: Sequence[MapMatchedPoint],
        route: Sequence[int],
        epsilon: float,
    ) -> MatchedTrajectory:
        """Greedy recovery of the ε-sampling trajectory (Algorithm 2)."""
        self.eval()
        features = build_point_features(network, trajectory, list(observed))
        segments = np.asarray([a.edge_id for a in observed])
        route_arr = np.asarray(route)
        attrs = route_attributes(network, route)
        fused = self.encoder(features, segments, route_arr, attrs)
        kernel = self.decoder.inference_kernel(fused.data)

        observed_indices = route_index_of_segments(
            list(route), [a.edge_id for a in observed]
        )
        route_cum = route_cumulative_lengths(network, list(route))
        observed_offsets = _point_offsets(
            route_cum, observed_indices, [a.ratio for a in observed]
        )
        counts = missing_point_counts(trajectory, epsilon)
        chunk = max(1, self.PRIOR_CHUNK_ROWS // len(route_arr))

        start_t = observed[0].t
        horizon = max(observed[-1].t - start_t, 1.0)
        points: List[MapMatchedPoint] = [observed[0]]
        hidden = kernel.advance(
            kernel.initial_state(), observed_indices[0], observed[0].ratio, 0.0
        )
        prev_idx = observed_indices[0]
        for i, n_missing in enumerate(counts):
            t0, t1 = observed[i].t, observed[i + 1].t
            o0, o1 = observed_offsets[i], observed_offsets[i + 1]
            span = max(t1 - t0, 1e-9)
            # Missing points of this gap lie on the sub-route between the
            # two observed anchors: Eq. 17's lower bound plus the upper
            # bound the gap's right anchor provides at inference time.
            upper_idx = max(observed_indices[i + 1], prev_idx)
            times = t0 + np.arange(1, n_missing + 1) * epsilon
            expected_offsets = o0 + (times - t0) / span * (o1 - o0)
            for first in range(0, n_missing, chunk):
                last = min(first + chunk, n_missing)
                gap_priors = self._segment_priors(
                    route_cum, expected_offsets[first:last]
                )
                for priors, t, expected in zip(
                    gap_priors,
                    times[first:last].tolist(),
                    expected_offsets[first:last].tolist(),
                ):
                    scores = kernel.scores(hidden, priors)
                    idx = prev_idx + int(scores[prev_idx : upper_idx + 1].argmax())
                    prior_ratio = _ratio_within(route_cum, idx, expected)
                    ratio = kernel.ratio(hidden, scores, prior_ratio)
                    ratio = min(max(ratio, 0.0), _BELOW_ONE)
                    points.append(
                        MapMatchedPoint(edge_id=int(route_arr[idx]), ratio=ratio, t=t)
                    )
                    hidden = kernel.advance(
                        hidden, idx, ratio, (t - start_t) / horizon
                    )
                    prev_idx = idx
            nxt = observed[i + 1]
            points.append(nxt)
            # The observed anchor pins the vehicle's route position; the
            # next gap continues from it.
            prev_idx = observed_indices[i + 1]
            hidden = kernel.advance(
                hidden, prev_idx, nxt.ratio, (nxt.t - start_t) / horizon
            )
        return MatchedTrajectory(points)
