"""Token dispatch plans: from routing decisions to send/receive layouts.

A :class:`DispatchPlan` flattens the kept (token, slot) pairs of a routing
decision into expert-sorted order — the layout both the local MoE layer
(per-expert batched matmuls) and the expert-parallel alltoall (contiguous
per-destination buffers) consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "DispatchPlan",
    "build_dispatch",
    "inference_keep_mask",
    "experts_of_rank",
]


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

    @property
    def num_experts(self) -> int:
        return int(self.counts.shape[0])

    def segment(self, expert: int) -> slice:
        """Slice of the dispatched arrays belonging to ``expert``."""
        return slice(int(self.offsets[expert]), int(self.offsets[expert + 1]))


def build_dispatch(
    indices: np.ndarray,
    num_experts: int,
    keep_mask: np.ndarray | None = None,
) -> DispatchPlan:
    """Build an expert-sorted dispatch plan from (N, k) routing indices.

    ``keep_mask`` (same shape) excludes capacity-dropped slots. The sort is
    stable, so within one expert tokens appear in batch order — making the
    plan deterministic and the combine reproducible.
    """
    if indices.ndim != 2:
        raise ConfigError(f"indices must be (N, k), got shape {indices.shape}")
    n, k = indices.shape
    if keep_mask is None:
        keep_mask = np.ones((n, k), dtype=bool)
    if keep_mask.shape != (n, k):
        raise ConfigError(
            f"keep_mask shape {keep_mask.shape} must match indices {indices.shape}"
        )
    tok, slot = np.nonzero(keep_mask)
    exp = indices[tok, slot]
    if exp.size and (exp.min() < 0 or exp.max() >= num_experts):
        raise ConfigError(
            f"expert index out of range [0, {num_experts}): "
            f"[{exp.min()}, {exp.max()}]"
        )
    order = np.argsort(exp, kind="stable")
    tok, slot, exp = tok[order], slot[order], exp[order]
    counts = np.bincount(exp, minlength=num_experts)
    offsets = np.zeros(num_experts + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return DispatchPlan(
        token_idx=tok.astype(np.int64),
        expert_idx=exp.astype(np.int64),
        slot_idx=slot.astype(np.int64),
        counts=counts.astype(np.int64),
        offsets=offsets,
        num_tokens=n,
    )


def inference_keep_mask(
    indices: np.ndarray, num_experts: int, max_per_expert: int
) -> np.ndarray:
    """Cap each expert at ``max_per_expert`` dispatched slots (absolute).

    Training capacity (:func:`repro.moe.capacity.apply_capacity`) sizes
    buffers relative to the batch; a serving engine instead bounds each
    expert's *absolute* per-step work so one hot expert cannot stall a
    decode iteration for every request in flight. Slots are kept in batch
    order (earliest rows win — matching the stable dispatch sort), so the
    mask composes with :func:`build_dispatch` deterministically. Returns an
    (N, k) bool mask; dropped slots fall back to the residual path exactly
    like capacity drops.
    """
    if indices.ndim != 2:
        raise ConfigError(f"indices must be (N, k), got shape {indices.shape}")
    if max_per_expert < 1:
        raise ConfigError(
            f"max_per_expert must be >= 1, got {max_per_expert}"
        )
    n, k = indices.shape
    flat = indices.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= num_experts):
        raise ConfigError(
            f"expert index out of range [0, {num_experts}): "
            f"[{flat.min()}, {flat.max()}]"
        )
    # Stable sort groups slots by expert while preserving batch order;
    # each slot's rank within its expert group is its claim number.
    order = np.argsort(flat, kind="stable")
    sorted_experts = flat[order]
    counts = np.bincount(sorted_experts, minlength=num_experts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    claim = np.arange(flat.size) - offsets[sorted_experts]
    keep_sorted = claim < max_per_expert
    keep = np.empty(flat.size, dtype=bool)
    keep[order] = keep_sorted
    return keep.reshape(n, k)


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
