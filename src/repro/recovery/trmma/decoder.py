"""TRMMA multitask decoder (Eq. 15-18, Fig. 4 right).

A GRU tracks the decoding state ``h_j``.  For each point to emit:

* **segment classification** (Eq. 15-16): a two-layer MLP scores every route
  segment embedding ``H[k]`` against ``h_j``; sigmoid gives the binary
  probability ``P(e_k | a_j)``.  Prediction restricts the argmax to the
  sub-route from the previously emitted segment onward (Eq. 17).
* **ratio regression** (Eq. 18): softmax over the same scores produces an
  attention readout ``psi_j H``; an MLP with sigmoid head outputs the
  position ratio.

The emitted (segment embedding, ratio, time) triple feeds the GRU to
produce ``h_{j+1}``.

Scale adaptation (documented in EXPERIMENTS.md): both heads additionally
receive a *positional prior* — the signed offset of each route segment from
the missing point's constant-speed interpolated position, and the
interpolated local ratio.  The paper's decoder learns this travel-progress
geometry from millions of trajectories; at repo scale the prior supplies it
directly while the network learns the residual (dwell at signals, speed
variation).  Pass ``use_prior=False`` for the strictly faithful variant.

Two implementations of the same arithmetic live here.  The ``Tensor``
methods of :class:`RecoveryDecoder` (``scores``/``ratio``/``step``/
``advance``) build autograd graphs and are the training path.  Inference
runs on :class:`DecodeKernel`, plain NumPy over the same weight arrays,
built per trajectory by :meth:`RecoveryDecoder.inference_kernel` from the
encoder output ``H``.  Everything that does not depend on the decoding state
is computed once per trajectory: the ``H`` row block of the classifier's
first layer (``H·W1[:d_h] + b1``) and the ``H`` term of the ratio readout
(``psi·H·W = psi·(H·W)``).  A step then costs ``O(l_R·d_h + d_h²)`` instead
of the ``O(l_R·d_h²)`` of re-projecting every route row.  The kernel reads
the weights when it is built and is never cached: they change during
training.  It agrees with the ``Tensor`` methods to floating-point rounding
(the summation order differs), which ``tests/test_trmma.py`` pins at 1e-12.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ...nn import MLP, GRUCell, Module, Tensor, concat, softmax
from ...utils.rng import SeedLike, make_rng


class RecoveryDecoder(Module):
    """Sequential decoder over the route segments of ``H``."""

    #: Bound on the learned correction to the prior ratio (keeps an
    #: undertrained head from doing worse than the prior it refines).
    MAX_RATIO_CORRECTION = 0.15

    def __init__(
        self, d_h: int = 64, use_prior: bool = True, seed: SeedLike = None
    ) -> None:
        super().__init__()
        rng = make_rng(seed)
        self.d_h = d_h
        self.use_prior = use_prior
        # Prior basis per segment: signed offset, absolute offset, and a
        # Gaussian bump peaking at the expected position — the bump makes
        # "prefer the segment nearest the expected travel distance"
        # linearly learnable.
        self.n_prior = 3 if use_prior else 0
        extra = 1 if use_prior else 0
        # GRU input: the emitted point's route-segment embedding, its ratio,
        # and its normalised timestamp (time lets the state model dwell).
        self.gru = GRUCell(d_h + 2, d_h, seed=rng)
        # Eq. 15: w_kj = MLP([H[k] | h_j] (+ positional prior basis)).
        self.classifier = MLP(2 * d_h + self.n_prior, d_h, 1, seed=rng)
        # Eq. 18: ratio = sigmoid(MLP([h_j | psi_j H] (+ prior ratio))).
        self.ratio_head = MLP(2 * d_h + extra, d_h, 1, seed=rng)

    def initial_state(self, fused: Tensor) -> Tensor:
        """``h_0``: mean pooling over the rows of H (Algorithm 2 line 6)."""
        return fused.mean(axis=0).reshape(1, self.d_h)

    def scores(
        self,
        hidden: Tensor,
        fused: Tensor,
        segment_priors: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Segment scores ``w_{k,j}`` of shape (l_R,) (Eq. 15)."""
        l_route = fused.shape[0]
        tiled = hidden.reshape(1, self.d_h) * Tensor(np.ones((l_route, 1)))
        parts = [fused, tiled]
        if self.use_prior:
            prior = (
                segment_priors
                if segment_priors is not None
                else np.zeros((l_route, self.n_prior))
            )
            parts.append(Tensor(prior.reshape(l_route, self.n_prior)))
        pair = concat(parts, axis=-1)
        return self.classifier(pair).reshape(l_route)

    def ratio(
        self,
        hidden: Tensor,
        fused: Tensor,
        scores: Tensor,
        prior_ratio: float = 0.0,
    ) -> Tensor:
        """Predicted position ratio (scalar tensor) (Eq. 18).

        With the positional prior the head is *residual*: it predicts a
        bounded correction ``tanh(.)/2`` on top of the constant-speed prior
        ratio, which converges in a handful of epochs at repo scale.  The
        faithful variant (``use_prior=False``) is the paper's direct
        ``sigmoid(MLP(.))``.
        """
        psi = softmax(scores, axis=-1).reshape(1, fused.shape[0])
        readout = psi.matmul(fused).reshape(self.d_h)
        parts = [hidden.reshape(self.d_h), readout]
        if self.use_prior:
            parts.append(Tensor(np.array([prior_ratio])))
        pair = concat(parts, axis=-1)
        width = 2 * self.d_h + (1 if self.use_prior else 0)
        raw = self.ratio_head(pair.reshape(1, width))
        if not self.use_prior:
            return raw.sigmoid().reshape(1)
        correction = raw.tanh().reshape(1) * self.MAX_RATIO_CORRECTION
        shifted = correction + prior_ratio
        # Clip into [0, 1) smoothly via a linear pass-through: values are
        # clamped at decode time; training keeps the gradient alive.
        return shifted

    def step(
        self,
        hidden: Tensor,
        fused: Tensor,
        segment_priors: Optional[np.ndarray] = None,
        prior_ratio: float = 0.0,
    ) -> Tuple[Tensor, Tensor]:
        """One decoding step: (segment scores, predicted ratio)."""
        w = self.scores(hidden, fused, segment_priors)
        r = self.ratio(hidden, fused, w, prior_ratio)
        return w, r

    def advance(
        self,
        hidden: Tensor,
        fused: Tensor,
        segment_index: int,
        ratio_value: float,
        t_norm: float = 0.0,
    ) -> Tensor:
        """Next hidden state given the emitted point (Fig. 4's feedback)."""
        seg_embedding = fused[segment_index].reshape(1, self.d_h)
        extras = Tensor(np.array([[ratio_value, t_norm]]))
        return self.gru(concat([seg_embedding, extras], axis=-1), hidden)

    def inference_kernel(self, fused: np.ndarray) -> "DecodeKernel":
        """NumPy decode kernel over one trajectory's ``H`` (current weights)."""
        return DecodeKernel(self, fused)


class DecodeKernel:
    """Inference twin of :class:`RecoveryDecoder` for one trajectory.

    States are 1-D ``(d_h,)`` arrays; the classifier's and ratio head's
    first layers are split by input block (``H``, ``h``, prior) so the ``H``
    blocks are projected once here rather than at every step.
    """

    def __init__(self, decoder: RecoveryDecoder, fused: np.ndarray) -> None:
        d = decoder.d_h
        self.d_h = d
        self.use_prior = decoder.use_prior
        self.fused = fused
        fc1, fc2 = decoder.classifier.fc1, decoder.classifier.fc2
        w1 = fc1.weight.data
        # Eq. 15, first layer over [H[k] | h_j | prior_k].
        self._route_terms = fused @ w1[:d] + fc1.bias.data
        self._w_hidden = w1[d : 2 * d]
        self._w_prior = w1[2 * d :]
        self._w2 = fc2.weight.data[:, 0]
        self._b2 = float(fc2.bias.data[0])
        # Eq. 18, first layer over [h_j | psi_j H | prior ratio].
        r1, r2 = decoder.ratio_head.fc1, decoder.ratio_head.fc2
        wr = r1.weight.data
        self._r_hidden = wr[:d]
        self._r_route = fused @ wr[d : 2 * d]
        self._r_prior = wr[2 * d] if self.use_prior else None
        self._rb1 = r1.bias.data
        self._rw2 = r2.weight.data[:, 0]
        self._rb2 = float(r2.bias.data[0])
        gru = decoder.gru
        self._w_zr, self._b_zr = gru.w_zr.weight.data, gru.w_zr.bias.data
        self._w_h, self._b_h = gru.w_h.weight.data, gru.w_h.bias.data
        # GRU input [H[k] | ratio | t | h], rewritten in place per step.
        self._xh = np.empty(2 * d + 2)

    def initial_state(self) -> np.ndarray:
        """``h_0``: mean pooling over the rows of H (Algorithm 2 line 6)."""
        return self.fused.sum(axis=0) * (1.0 / self.fused.shape[0])

    def scores(
        self, hidden: np.ndarray, segment_priors: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Segment scores ``w_{k,j}`` of shape (l_R,) (Eq. 15)."""
        pre = self._route_terms + hidden.dot(self._w_hidden)
        if self.use_prior and segment_priors is not None:
            pre += segment_priors.dot(self._w_prior)
        return np.maximum(pre, 0.0, out=pre).dot(self._w2) + self._b2

    def ratio(
        self, hidden: np.ndarray, scores: np.ndarray, prior_ratio: float = 0.0
    ) -> float:
        """Predicted position ratio (Eq. 18); see :meth:`RecoveryDecoder.ratio`."""
        exps = np.exp(scores - scores.max())
        pre = hidden.dot(self._r_hidden)
        pre += (exps / exps.sum()).dot(self._r_route)
        pre += self._rb1
        if self.use_prior:
            pre += prior_ratio * self._r_prior
        raw = float(np.maximum(pre, 0.0, out=pre).dot(self._rw2)) + self._rb2
        if not self.use_prior:
            return 0.5 * (1.0 + math.tanh(0.5 * raw))  # sigmoid, overflow-free
        return math.tanh(raw) * RecoveryDecoder.MAX_RATIO_CORRECTION + prior_ratio

    def advance(
        self,
        hidden: np.ndarray,
        segment_index: int,
        ratio_value: float,
        t_norm: float = 0.0,
    ) -> np.ndarray:
        """Next hidden state given the emitted point (GRU step)."""
        d, xh = self.d_h, self._xh
        xh[:d] = self.fused[segment_index]
        xh[d] = ratio_value
        xh[d + 1] = t_norm
        xh[d + 2 :] = hidden
        gates = xh.dot(self._w_zr)
        gates += self._b_zr
        gates = 1.0 / (1.0 + np.exp(-gates))
        z = gates[:d]
        xh[d + 2 :] *= gates[d:]  # [x | r * h]
        candidate = xh.dot(self._w_h)
        candidate += self._b_h
        return (1.0 - z) * hidden + z * np.tanh(candidate)
