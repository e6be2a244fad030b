"""Parallel training strategies: MoDa hybrid, expert/data parallelism, ZeRO.

Every strategy — and every composite of them — is a layout;
:func:`strategy_for_layout` names it, and the measured runner
(:func:`run_distributed_training`) builds it.
"""

from repro.layout import ParallelLayout
from repro.parallel.collective_ops import allreduce_sum, copy_to_tp_region
from repro.parallel.dp import (
    broadcast_parameters,
    flatten_grads,
    unflatten_grads,
)
from repro.parallel.dist_checkpoint import (
    dense_state,
    global_expert_state,
    latest_snapshot,
    load_distributed,
    load_named_optimizer_state,
    named_optimizer_state,
    save_distributed,
    verify_snapshot,
)
from repro.parallel.ep import DistributedMoELayer
from repro.parallel.grid3d import Trainer3D
from repro.parallel.groups import MoDaGroups, build_groups
from repro.parallel.moda import MoDaTrainer, build_moda_model, split_params
from repro.parallel.pipeline import (
    GPipeRunner,
    PipelineStage,
    pipeline_bubble_fraction,
    stage_bounds,
)
from repro.parallel.tp import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelMLP,
    shard_linear_weights,
)
from repro.parallel.strategy import ParallelStrategy, RankTrainer, strategy_for_layout
from repro.parallel.runner import TrainingRunConfig, TrainingRunResult, run_distributed_training
from repro.parallel.zero import ZeroAdamW, shard_bounds

__all__ = [
    "ParallelLayout",
    "ParallelStrategy",
    "RankTrainer",
    "strategy_for_layout",
    "dense_state",
    "global_expert_state",
    "latest_snapshot",
    "load_distributed",
    "load_named_optimizer_state",
    "named_optimizer_state",
    "save_distributed",
    "verify_snapshot",
    "GPipeRunner",
    "Trainer3D",
    "PipelineStage",
    "pipeline_bubble_fraction",
    "stage_bounds",
    "copy_to_tp_region",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelMLP",
    "shard_linear_weights",
    "TrainingRunConfig",
    "TrainingRunResult",
    "run_distributed_training",
    "ZeroAdamW",
    "shard_bounds",
    "allreduce_sum",
    "broadcast_parameters",
    "flatten_grads",
    "unflatten_grads",
    "DistributedMoELayer",
    "MoDaGroups",
    "build_groups",
    "MoDaTrainer",
    "build_moda_model",
    "split_params",
]
