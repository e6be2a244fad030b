"""Sharded, deterministic data loading for data-parallel training.

Every data-parallel rank must see a *disjoint* slice of the stream each
step, and a run must be reproducible regardless of world size mapping —
so the shard stream id is a pure function of (seed, step, dp_rank).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.corpus import SyntheticCorpus
from repro.errors import PartitionError

__all__ = ["Batch", "ShardedLoader"]


@dataclass(frozen=True)
class Batch:
    """One training microbatch."""

    tokens: np.ndarray
    targets: np.ndarray
    step: int


class ShardedLoader:
    """Per-rank view of a :class:`SyntheticCorpus`.

    Parameters
    ----------
    corpus:
        The shared corpus definition (same object/config on every rank).
    batch_size / seq_len:
        Microbatch shape delivered to *this rank*.
    dp_rank / dp_size:
        This rank's position in the data-parallel group. Rank r at step s
        reads stream ``s * dp_size + r`` — disjoint across ranks, exhaustive
        across steps.
    """

    def __init__(
        self,
        corpus: SyntheticCorpus,
        batch_size: int,
        seq_len: int,
        dp_rank: int = 0,
        dp_size: int = 1,
    ):
        if dp_size < 1 or not 0 <= dp_rank < dp_size:
            raise PartitionError(
                f"invalid data-parallel coordinates rank={dp_rank} size={dp_size}"
            )
        if batch_size < 1 or seq_len < 1:
            raise PartitionError("batch_size and seq_len must be >= 1")
        self.corpus = corpus
        self.batch_size = batch_size
        self.seq_len = seq_len
        self.dp_rank = dp_rank
        self.dp_size = dp_size

    def get_batch(self, step: int) -> Batch:
        """The batch this rank consumes at ``step`` (pure function)."""
        if step < 0:
            raise PartitionError(f"step must be >= 0, got {step}")
        stream = step * self.dp_size + self.dp_rank
        tokens, targets = self.corpus.batch(self.batch_size, self.seq_len, stream=stream)
        return Batch(tokens=tokens, targets=targets, step=step)
