"""Gating strategies for Mixture-of-Experts routing.

A gate maps per-token routing logits to an expert assignment. The strategy
choice is the load-balance knob the paper ablates (experiment F5):

* :class:`TopKGate` — standard softmax top-k. Quality-optimal but routes by
  content, so Zipfian token streams produce heavily skewed expert loads.
* :class:`NoisyTopKGate` — top-k over noise-perturbed logits (Shazeer
  et al.); softens skew a little and regularizes routing.
* :class:`BalancedGate` — capacity-constrained greedy assignment (in the
  spirit of BaGuaLu's balanced gating / SWIPE): every expert receives at
  most its capacity, so per-node work is near-uniform by construction.
* :class:`RandomGate` — uniform random routing; perfectly balanced in
  expectation, content-oblivious (quality lower bound).

All gates return combine weights differentiable w.r.t. the logits (the
assignment itself is discrete, as in every real MoE implementation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.moe.dispatch import expert_capacity
from repro.tensor import Tensor, softmax

__all__ = [
    "GateOutput",
    "Gate",
    "TopKGate",
    "NoisyTopKGate",
    "BalancedGate",
    "RandomGate",
    "make_gate",
]


@dataclass
class GateOutput:
    """Routing decision for a batch of N tokens over E experts.

    Attributes
    ----------
    indices:
        (N, k) int array of expert ids per slot.
    combine_weights:
        (N, k) Tensor of mixing weights (differentiable w.r.t. logits);
        rows are renormalized over the k chosen slots.
    probs:
        (N, E) Tensor of full softmax probabilities (for aux losses).
    load:
        (E,) int array: tokens assigned per expert (before capacity drops).
    """

    indices: np.ndarray
    combine_weights: Tensor
    probs: Tensor
    load: np.ndarray


def _gather_weights(probs: Tensor, indices: np.ndarray) -> Tensor:
    """Differentiably pick probs[n, indices[n, j]] and renormalize per row."""
    n, k = indices.shape
    rows = np.arange(n)[:, None]
    picked = probs[rows, indices]  # (N, k) via autograd getitem
    denom = picked.sum(axis=1, keepdims=True) + 1e-9
    return picked / denom


def _bincount_load(indices: np.ndarray, num_experts: int) -> np.ndarray:
    return np.bincount(indices.reshape(-1), minlength=num_experts)


class Gate:
    """Base class: subclasses implement :meth:`assign`."""

    def __init__(self, num_experts: int, top_k: int = 1):
        if num_experts < 1:
            raise ConfigError(f"num_experts must be >= 1, got {num_experts}")
        if not 1 <= top_k <= num_experts:
            raise ConfigError(
                f"top_k must be in [1, num_experts={num_experts}], got {top_k}"
            )
        self.num_experts = num_experts
        self.top_k = top_k

    def assign(self, probs_data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return (N, k) expert indices from (N, E) probabilities."""
        raise NotImplementedError

    def __call__(self, logits: Tensor, rng: np.random.Generator) -> GateOutput:
        """Route tokens given (N, E) logits."""
        if logits.ndim != 2 or logits.shape[1] != self.num_experts:
            raise ConfigError(
                f"gate expects (N, {self.num_experts}) logits, got {logits.shape}"
            )
        probs = softmax(logits)
        indices = self.assign(probs.data, rng)
        weights = _gather_weights(probs, indices)
        return GateOutput(
            indices=indices,
            combine_weights=weights,
            probs=probs,
            load=_bincount_load(indices, self.num_experts),
        )


class TopKGate(Gate):
    """Vanilla softmax top-k routing."""

    name = "topk"

    def assign(self, probs_data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        k = self.top_k
        # argpartition is O(N*E); take the k largest then order them.
        part = np.argpartition(-probs_data, k - 1, axis=1)[:, :k]
        row = np.arange(probs_data.shape[0])[:, None]
        order = np.argsort(-probs_data[row, part], axis=1)
        return part[row, order]


class NoisyTopKGate(Gate):
    """Top-k over log-probabilities perturbed with unit Gaussian noise
    (train-time only)."""

    name = "noisy-topk"

    def assign(self, probs_data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        noisy = np.log(probs_data + 1e-9) + rng.normal(0.0, 1.0, size=probs_data.shape)
        k = self.top_k
        part = np.argpartition(-noisy, k - 1, axis=1)[:, :k]
        row = np.arange(probs_data.shape[0])[:, None]
        order = np.argsort(-noisy[row, part], axis=1)
        return part[row, order]


class BalancedGate(Gate):
    """Capacity-constrained greedy assignment (BaGuaLu-style balancing).

    Tokens are processed in descending order of routing confidence; each
    takes its most-preferred expert that still has capacity
    ``expert_capacity(N, E, k, 1.0)``, i.e. ``ceil(N * k / E)``. The result
    bounds every expert's load, which bounds the slowest expert's compute
    and the largest alltoall bucket — the property that keeps 96,000 nodes
    in lock-step.
    """

    name = "balanced"

    def assign(self, probs_data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, e = probs_data.shape
        k = self.top_k
        capacity = expert_capacity(n, e, k, 1.0)
        # Preference order per token; confidence order across tokens.
        pref = np.argsort(-probs_data, axis=1)
        conf_order = np.argsort(-probs_data.max(axis=1), kind="stable")
        remaining = np.full(e, capacity, dtype=np.int64)
        out = np.empty((n, k), dtype=np.int64)
        for token in conf_order:
            taken = 0
            chosen: list[int] = []
            for candidate in pref[token]:
                if taken == k:
                    break
                if remaining[candidate] > 0 and candidate not in chosen:
                    remaining[candidate] -= 1
                    chosen.append(int(candidate))
                    taken += 1
            while taken < k:
                # Capacity exhausted everywhere preferred: spill to the
                # least-loaded expert this token has not taken (never drops
                # tokens, never routes one token to an expert twice).
                spill = remaining.copy()
                spill[chosen] = np.iinfo(np.int64).min
                candidate = int(np.argmax(spill))
                remaining[candidate] -= 1
                chosen.append(candidate)
                taken += 1
            out[token] = chosen
        return out


class RandomGate(Gate):
    """Uniform random routing (content-oblivious balance baseline)."""

    name = "random"

    def assign(self, probs_data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, e = probs_data.shape
        k = self.top_k
        if k == 1:
            return rng.integers(0, e, size=(n, 1))
        out = np.empty((n, k), dtype=np.int64)
        for i in range(n):
            out[i] = rng.choice(e, size=k, replace=False)
        return out


_GATES = {
    "topk": TopKGate,
    "noisy-topk": NoisyTopKGate,
    "balanced": BalancedGate,
    "random": RandomGate,
}


def make_gate(name: str, num_experts: int, top_k: int = 1) -> Gate:
    """Factory: build a gate by strategy name."""
    try:
        cls = _GATES[name]
    except KeyError:
        raise ConfigError(f"unknown gate {name!r}; known: {sorted(_GATES)}") from None
    return cls(num_experts, top_k)
