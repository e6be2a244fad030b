"""ZeRO-1 style optimizer-state sharding.

Each data-parallel rank keeps Adam moments and fp32 masters for only a
contiguous 1/P shard of the flattened parameter vector; after the
(already-synchronized) gradients arrive, the rank updates its shard and an
allgather redistributes the fresh parameters. Optimizer memory per rank
drops from 12 bytes/param to 12/P + parameter storage — the knob that lets
brain-scale models fit (experiment T4 quantifies it). When every parameter
is fp16 the allgather carries the shard rounded to fp16, as 2-byte float16
(DESIGN.md §8, "The wire carries the modelled dtype"): each receiver rounds
the parameters to fp16 anyway, so what it stores is unchanged.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.parallel.dp import assign_flat_params, flatten_grads, flatten_params, wire_dtype
from repro.simmpi import Comm
from repro.tensor import Tensor, quantize, to_wire
from repro.train.optim import adam_update
from repro.utils.mathx import balanced_bounds

__all__ = ["ZeroAdamW", "shard_bounds"]


def shard_bounds(total: int, size: int, rank: int) -> tuple[int, int]:
    """Contiguous, balanced [lo, hi) bounds of ``rank``'s shard."""
    if size < 1 or not 0 <= rank < size:
        raise ConfigError(f"invalid shard coordinates rank={rank} size={size}")
    return balanced_bounds(total, size, rank)


class ZeroAdamW(object):
    """Adam with optimizer state sharded over a communicator.

    Carries what the distributed step reads of an optimizer, as
    :class:`repro.train.optim.Adam` does: ``lr``, ``params`` and
    ``step(grad_scale)``.

    Requirements: every rank of ``comm`` holds the same parameter list
    (same shapes, same values) with *synchronized gradients* before
    ``step`` — exactly the state after a data-parallel allreduce.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        comm: Comm,
        lr: float = 1e-3,
    ):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ConfigError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigError(f"lr must be > 0, got {lr}")
        self.comm = comm
        self.lr = float(lr)
        self.step_count = 0

        self._total = sum(p.size for p in self.params)
        self._lo, self._hi = shard_bounds(self._total, comm.size, comm.rank)
        shard_len = self._hi - self._lo
        # fp32 master + moments for the local shard only.
        self._master = flatten_params(self.params)[self._lo: self._hi].copy()
        self._wire = wire_dtype(self.params)
        self._m = np.zeros(shard_len, dtype=np.float32)
        self._v = np.zeros(shard_len, dtype=np.float32)

    # ------------------------------------------------------------------ #

    @property
    def shard_size(self) -> int:
        """Number of scalar parameters this rank's optimizer state covers."""
        return self._hi - self._lo

    def optimizer_state_bytes(self) -> int:
        """Bytes of fp32 optimizer state held locally (master + m + v)."""
        return 3 * 4 * self.shard_size

    # ------------------------------------------------------------------ #

    def step(self, grad_scale: float = 1.0) -> None:
        """Update the local shard, then allgather fresh parameters (in the
        parameters' wire format; the fp32 master stays local)."""
        self.step_count += 1
        g = flatten_grads(self.params)[self._lo: self._hi] * grad_scale
        self._master, self._m, self._v = adam_update(
            self._master, self._m, self._v, g, self.step_count, self.lr,
        )
        shard = to_wire(quantize(self._master, self._wire), self._wire)
        flat = np.concatenate(self.comm.allgather(shard), dtype=np.float32)
        assign_flat_params(self.params, flat)
