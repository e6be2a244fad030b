"""Token dispatch plans: from routing decisions to send/receive layouts.

A :class:`DispatchPlan` flattens the kept (token, slot) pairs of a routing
decision into expert-sorted order — the layout both the local MoE layer
(per-expert batched matmuls) and the expert-parallel alltoall (contiguous
per-destination buffers) consume.

Capacity is part of building the plan. Static expert buffers are what make
MoE communication fixed-size (and the alltoall schedulable): with a
``capacity``, each expert keeps at most that many slots and drops the rest
(their combine weight is never applied and the residual path carries them),
exactly as in Switch/GShard-style systems. Slots claim buffer places in
batch order, so the kept ones are the first ``capacity`` of each expert in
the stable expert sort. :func:`expert_capacity` is the one buffer-size
formula; experiment F7 sweeps its factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.mathx import ceil_div

__all__ = [
    "DispatchPlan",
    "build_dispatch",
    "expert_capacity",
    "experts_of_rank",
]


def expert_capacity(num_tokens: int, num_experts: int, top_k: int, capacity_factor: float) -> int:
    """Per-expert buffer size: ``ceil(tokens * top_k * capacity_factor / experts)``, at least 1."""
    if num_tokens < 0 or num_experts < 1 or top_k < 1:
        raise ConfigError("invalid capacity arguments")
    if capacity_factor <= 0:
        raise ConfigError(f"capacity_factor must be > 0, got {capacity_factor}")
    return max(1, ceil_div(int(np.ceil(num_tokens * top_k * capacity_factor)), num_experts))


@dataclass(frozen=True)
class DispatchPlan:
    """Expert-sorted flattening of kept routing slots.

    Attributes
    ----------
    token_idx:
        (M,) source-token row for each dispatched slot.
    expert_idx:
        (M,) destination expert for each dispatched slot (non-decreasing).
    slot_idx:
        (M,) which of the token's k slots this entry came from.
    counts:
        (E,) number of dispatched slots per expert;
        ``counts.sum() == M``.
    offsets:
        (E+1,) prefix sums of ``counts``: expert e's segment is
        ``[offsets[e], offsets[e+1])``.
    num_tokens:
        Number of source tokens (rows of the activations tensor).
    """

    token_idx: np.ndarray
    expert_idx: np.ndarray
    slot_idx: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    num_tokens: int

    @property
    def num_slots(self) -> int:
        return int(self.token_idx.shape[0])


def build_dispatch(
    indices: np.ndarray,
    num_experts: int,
    capacity: int | None = None,
) -> DispatchPlan:
    """Build an expert-sorted dispatch plan from (N, k) routing indices.

    The sort is stable, so within one expert slots appear in batch order —
    making the plan deterministic and the combine reproducible. A slot's
    rank within its expert is its claim on that expert's buffer: with a
    ``capacity``, the slot of claim rank ``r`` is kept iff ``r < capacity``.
    """
    if indices.ndim != 2:
        raise ConfigError(f"indices must be (N, k), got shape {indices.shape}")
    if capacity is not None and capacity < 1:
        raise ConfigError(f"capacity must be >= 1, got {capacity}")
    n, k = indices.shape
    flat = indices.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= num_experts):
        raise ConfigError(
            f"expert index out of range [0, {num_experts}): "
            f"[{flat.min()}, {flat.max()}]"
        )
    order = np.argsort(flat, kind="stable")
    exp = flat[order].astype(np.int64)
    counts = np.bincount(exp, minlength=num_experts)
    offsets = np.zeros(num_experts + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if capacity is not None:
        kept = np.arange(order.size) - offsets[exp] < capacity
        order, exp = order[kept], exp[kept]
        np.minimum(counts, capacity, out=counts)
        np.cumsum(counts, out=offsets[1:])
    tok, slot = np.divmod(order, k)
    return DispatchPlan(
        token_idx=tok,
        expert_idx=exp,
        slot_idx=slot,
        counts=counts,
        offsets=offsets,
        num_tokens=n,
    )


def experts_of_rank(rank: int, num_experts: int, num_ranks: int) -> range:
    """Experts owned by ``rank`` under blocked placement."""
    if num_experts % num_ranks != 0:
        raise ConfigError(
            f"num_ranks={num_ranks} must divide num_experts={num_experts}"
        )
    per = num_experts // num_ranks
    if not 0 <= rank < num_ranks:
        raise ConfigError(f"rank {rank} out of range [0, {num_ranks})")
    return range(rank * per, (rank + 1) * per)
