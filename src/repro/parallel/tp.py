"""Tensor (intra-layer) parallelism: Megatron-style column/row splits.

BaGuaLu itself partitions by experts rather than within matrices, but a
framework in this family needs the intra-layer axis too, so it is provided
as substrate:

* :class:`ColumnParallelLinear` splits the weight's *output* dimension
  over the TP group; each rank computes a slice of the activations
  (forward needs no communication; backward allreduces the input grad).
* :class:`RowParallelLinear` splits the *input* dimension; each rank
  computes a partial product and the forward allreduces the partials.
* :class:`TensorParallelMLP` composes them the Megatron way
  (column -> gelu -> row): exactly **one** allreduce per direction for the
  whole MLP, with the nonlinearity applied to local shards.

Equivalence with the dense layers is exact (tested): TP changes where the
FLOPs run, never the math.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.layers import INIT_STD
from repro.models.module import Module, Parameter
from repro.parallel.collective_ops import allreduce_sum, copy_to_tp_region
from repro.simmpi import Comm
from repro.tensor import Tensor, gelu

__all__ = [
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelMLP",
    "shard_linear_weights",
]


def shard_linear_weights(
    weight: np.ndarray, bias: np.ndarray | None, tp_rank: int, tp_size: int, axis: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Slice a dense (in, out) weight for one TP rank.

    ``axis=1`` is the column split (output dim; bias is sliced too);
    ``axis=0`` the row split (input dim; bias stays whole and is applied
    once, after the allreduce).
    """
    if axis not in (0, 1):
        raise ConfigError(f"axis must be 0 or 1, got {axis}")
    dim = weight.shape[axis]
    if dim % tp_size != 0:
        raise ConfigError(
            f"weight dim {dim} (axis {axis}) not divisible by tp_size={tp_size}"
        )
    per = dim // tp_size
    sl = slice(tp_rank * per, (tp_rank + 1) * per)
    w = weight[:, sl] if axis == 1 else weight[sl, :]
    b = None
    if bias is not None:
        b = bias[sl] if axis == 1 else bias
    return w.copy(), (b.copy() if b is not None else None)


class ColumnParallelLinear(Module):
    """Linear with the output dimension sharded over the TP group.

    Output shape is (..., out_features / tp_size) — a *local shard*. The
    forward is communication-free; the backward's input gradient is summed
    across the group by the consumer (see :class:`RowParallelLinear`'s
    forward allreduce, or an explicit gather if used standalone).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        tp_comm: Comm,
        rng: np.random.Generator,
        allreduce_algorithm: str | None = None,
    ):
        super().__init__()
        if out_features % tp_comm.size != 0:
            raise ConfigError(
                f"out_features={out_features} not divisible by "
                f"tp_size={tp_comm.size}"
            )
        self.comm = tp_comm
        self.allreduce_algorithm = allreduce_algorithm
        self.in_features = in_features
        self.out_features = out_features
        self.local_out = out_features // tp_comm.size
        # Draw the *full* weight from the shared rng (identical on every
        # rank), then keep the local slice: the sharded model is exactly a
        # partition of the dense one.
        full_w = rng.normal(0.0, INIT_STD, size=(in_features, out_features))
        w, b = shard_linear_weights(
            full_w, np.zeros(out_features), tp_comm.rank, tp_comm.size, axis=1
        )
        self.weight = Parameter(w)
        self.weight.is_tp = True
        self.bias = Parameter(b)
        self.bias.is_tp = True

    def forward(self, x: Tensor) -> Tensor:
        # "f" operator: every shard consumes the replicated input, so the
        # input gradient is the allreduced sum of shard contributions.
        x = copy_to_tp_region(x, self.comm, self.allreduce_algorithm)
        return x @ self.weight + self.bias


class RowParallelLinear(Module):
    """Linear with the input dimension sharded over the TP group.

    Consumes a local shard (..., in_features / tp_size) — e.g. a
    ColumnParallelLinear's output — and produces the *full* output: each
    rank computes a partial product and the forward allreduces the sum
    (whose backward, an allreduce too, routes gradients to every shard).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        tp_comm: Comm,
        rng: np.random.Generator,
        allreduce_algorithm: str | None = None,
    ):
        super().__init__()
        if in_features % tp_comm.size != 0:
            raise ConfigError(
                f"in_features={in_features} not divisible by tp_size={tp_comm.size}"
            )
        self.comm = tp_comm
        self.allreduce_algorithm = allreduce_algorithm
        self.in_features = in_features
        self.out_features = out_features
        self.local_in = in_features // tp_comm.size
        full_w = rng.normal(0.0, INIT_STD, size=(in_features, out_features))
        w, b = shard_linear_weights(
            full_w, np.zeros(out_features), tp_comm.rank, tp_comm.size, axis=0
        )
        self.weight = Parameter(w)
        self.weight.is_tp = True
        # Bias is applied once, after the sum (only the values matter; all
        # ranks hold the same copy and its gradient averages in DP), so it
        # is *replicated*, not TP-sharded.
        self.bias = Parameter(b)

    def forward(self, x_local: Tensor) -> Tensor:
        partial = x_local @ self.weight
        return allreduce_sum(partial, self.comm, self.allreduce_algorithm) + self.bias


class TensorParallelMLP(Module):
    """Megatron MLP: column-parallel fc_in -> GELU -> row-parallel fc_out.

    Numerically identical to :class:`repro.models.MLP` built from the same
    rng (equivalence-tested), with the d_ff dimension sharded and exactly
    one forward allreduce.
    """

    #: Recompute would re-run the forward allreduce inside backward.
    recomputable = False

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        tp_comm: Comm,
        rng: np.random.Generator,
        allreduce_algorithm: str | None = None,
    ):
        super().__init__()
        self.d_model = d_model
        self.d_ff = d_ff
        self.comm = tp_comm
        self.fc_in = ColumnParallelLinear(
            d_model, d_ff, tp_comm, rng, allreduce_algorithm
        )
        self.fc_out = RowParallelLinear(
            d_ff, d_model, tp_comm, rng, allreduce_algorithm
        )

    def forward(self, x: Tensor) -> Tensor:
        return self.fc_out(gelu(self.fc_in(x)))
