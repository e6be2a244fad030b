"""Per-node memory accounting under a parallel plan.

Answers "does this brain-scale config fit on 96 GiB nodes?" — the
feasibility constraint that forces expert parallelism (replicating 14.5 T
parameters is impossible) and motivates ZeRO-style optimizer sharding
(experiment T4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.configs import ModelConfig
from repro.perf.plan import ParallelPlan
from repro.tensor.dtype import itemsize

__all__ = ["MemoryBreakdown", "node_memory"]

#: fp32 master + Adam m + v per parameter.
_OPTIMIZER_BYTES_PER_PARAM = 12

#: Crude activation multiplier: stored tensors per block relative to the
#: block input (pre-norm transformer with recomputation disabled).
#: Attention score buffers (B, H, T, T) are assumed *streamed*
#: (Flash-attention style) and therefore excluded: materializing them at
#: seq_len 2048 would dominate every other term and no system at this
#: scale does so.
_ACTIVATION_FACTOR = 8.0


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes per node, by category."""

    dense_params: float
    expert_params: float
    gradients: float
    optimizer_state: float
    activations: float

    @property
    def params(self) -> float:
        return self.dense_params + self.expert_params

    @property
    def total(self) -> float:
        return self.params + self.gradients + self.optimizer_state + self.activations


def node_memory(
    config: ModelConfig,
    plan: ParallelPlan,
    replicate_experts: bool = False,
) -> MemoryBreakdown:
    """Memory footprint of one node under ``plan``.

    ``replicate_experts=True`` models the pure-data-parallel baseline
    (every node holds every expert) — the configuration the breakdown shows
    to be infeasible at brain scale.
    """
    plan.validate_against(config)
    param_b = itemsize(config.dtype)

    dense_count = config.replicated_params
    expert_total = config.num_moe_layers * config.num_experts * config.ffn_expert_params
    if replicate_experts:
        expert_count = expert_total
    else:
        # Instance-granularity sharding over the EP group.
        expert_count = expert_total / plan.ep_size

    local_params = dense_count + expert_count
    grads = local_params * param_b  # gradient buffers in the param dtype
    optimizer = local_params * _OPTIMIZER_BYTES_PER_PARAM / plan.zero_shards

    if plan.recompute:
        # Only segment boundaries survive: one residual-stream tensor per
        # layer, plus the live segment's internals (~2 layers' worth of
        # full activation state during its replay).
        acts = (
            plan.tokens_per_rank
            * config.d_model
            * (config.n_layers + _ACTIVATION_FACTOR * 2)
            * param_b
        )
    else:
        acts = (
            plan.tokens_per_rank
            * config.d_model
            * config.n_layers
            * _ACTIVATION_FACTOR
            * param_b
        )

    return MemoryBreakdown(
        dense_params=dense_count * param_b,
        expert_params=expert_count * param_b,
        gradients=grads,
        optimizer_state=optimizer,
        activations=acts,
    )
