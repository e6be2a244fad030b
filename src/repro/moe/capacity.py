"""Expert capacity: buffer sizing and token dropping.

Static expert buffers are what make MoE communication fixed-size (and the
alltoall schedulable): each expert accepts at most
``capacity = ceil(tokens * top_k / num_experts * capacity_factor)`` tokens.
Tokens routed beyond an expert's capacity are *dropped* for that slot
(their combine weight is zeroed and the residual path carries them),
exactly as in Switch/GShard-style systems. Experiment F7 sweeps the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.mathx import ceil_div

__all__ = ["expert_capacity", "CapacityResult", "apply_capacity"]


def expert_capacity(num_tokens: int, num_experts: int, top_k: int, capacity_factor: float) -> int:
    """Per-expert token buffer size."""
    if num_tokens < 0 or num_experts < 1 or top_k < 1:
        raise ConfigError("invalid capacity arguments")
    if capacity_factor <= 0:
        raise ConfigError(f"capacity_factor must be > 0, got {capacity_factor}")
    return max(1, ceil_div(int(np.ceil(num_tokens * top_k * capacity_factor)), num_experts))


@dataclass
class CapacityResult:
    """Outcome of enforcing capacity on a routing decision.

    Attributes
    ----------
    keep_mask:
        (N, k) bool — False for dropped slots.
    positions:
        (N, k) int — the slot's position within its expert's buffer
        (meaningless where dropped).
    capacity:
        The per-expert buffer size used.
    dropped:
        Number of dropped (token, slot) pairs.
    """

    keep_mask: np.ndarray
    positions: np.ndarray
    capacity: int
    dropped: int

    @property
    def drop_fraction(self) -> float:
        total = self.keep_mask.size
        return self.dropped / total if total else 0.0


def apply_capacity(
    indices: np.ndarray,
    num_experts: int,
    capacity_factor: float,
) -> CapacityResult:
    """Enforce per-expert capacity over (N, k) routing ``indices``.

    Tokens claim buffer slots in batch order, like Switch Transformer. A
    slot whose expert buffer is full is dropped.
    """
    n, k = indices.shape
    cap = expert_capacity(n, num_experts, k, capacity_factor)
    fill = np.zeros(num_experts, dtype=np.int64)
    keep = np.zeros((n, k), dtype=bool)
    pos = np.zeros((n, k), dtype=np.int64)
    for token in range(n):
        for slot in range(k):
            e = indices[token, slot]
            if fill[e] < cap:
                keep[token, slot] = True
                pos[token, slot] = fill[e]
                fill[e] += 1
    dropped = int(n * k - keep.sum())
    return CapacityResult(keep_mask=keep, positions=pos, capacity=cap, dropped=dropped)
