"""The layout is the strategy: one name, one set of checks, two build paths.

Every way this repo knows how to distribute training — data parallelism,
expert parallelism, the MoDa hybrid, tensor parallelism, GPipe pipelines,
ZeRO optimizer sharding, and their composites — is a
:class:`~repro.layout.ParallelLayout`. :func:`strategy_for_layout` names
the layout's family (``dp``, ``ep``, ``moda``, ``tp``, ``tp_ep``, ``zero``,
``pipeline``, ``pp_dp`` or ``pp_moda``) and returns a
:class:`ParallelStrategy` that validates a run config and builds one rank's
:class:`RankTrainer`. The name is a label (metrics, reports); what runs is
chosen by the layout alone: the in-plane body below when ``pp_size == 1``,
the pipeline body (:class:`~repro.parallel.grid3d.Trainer3D`, pipe x data x
expert) otherwise.

Rank geometry for the in-plane layouts follows
:class:`~repro.layout.ParallelLayout`: EP innermost (consecutive ranks,
alltoalls on the tightest links), TP in the middle, replicas outermost.
Ranks of one TP group consume the *same* data shard, so replicated
gradients averaged over the world and TP-sharded gradients averaged over
the same-shard group are both exact. Every layout takes its communicators
from :func:`~repro.parallel.groups.build_groups`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.amp import DynamicLossScaler, cast_model
from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.layout import ParallelLayout, validate_layout_for_model
from repro.models.moe_layer import MoELayer
from repro.moe.balance import load_stats
from repro.parallel.ep import fill_group_loads
from repro.parallel.grid3d import Trainer3D
from repro.parallel.groups import build_groups
from repro.parallel.moda import MoDaTrainer, build_moda_model, split_params
from repro.parallel.step import DistributedStep
from repro.parallel.zero import ZeroAdamW
from repro.perf.stepmodel import ComputeTimer
from repro.simmpi import Comm
from repro.train.optim import Adam
from repro.train.schedules import ConstantLR
from repro.train.trainer import StepResult

if TYPE_CHECKING:  # pragma: no cover - circular at runtime, typing only
    from repro.hardware.specs import MachineSpec
    from repro.parallel.runner import TrainingRunConfig

__all__ = ["RankTrainer", "ParallelStrategy", "strategy_for_layout"]


# ---------------------------------------------------------------------- #
# Step protocol
# ---------------------------------------------------------------------- #


def _emit_step_observations(comm, step: int, result: StepResult,
                            moe_layers: list[MoELayer], strategy_name: str) -> None:
    """Fill in the step's expert loads and imbalance, then emit the step's
    metrics + router telemetry into the run's spine.

    Called by every rank after each step (collective over the EP group):
    the layers' group loads come from one EP allreduce of their last
    forward's local loads (:func:`~repro.parallel.ep.fill_group_loads`).
    The imbalance is max/mean of the expert loads summed over
    ``moe_layers`` (1.0 when no layer has loads). Only world rank 0 of an
    observing run records (loads are group-allreduced, so one writer keeps
    the numbers global and counted once). On an unobserved run the rest is
    two attribute reads and a return.
    """
    fill_group_loads(moe_layers)
    loads = [m.last_global_load for m in moe_layers]
    result.imbalance = load_stats(np.sum(loads, axis=0)).imbalance if loads else 1.0
    context = comm.context
    if not context.observing or comm.rank != 0:
        return
    registry = context.metrics
    registry.counter("train_steps", strategy=strategy_name).inc()
    registry.gauge("train_loss", strategy=strategy_name).set(result.global_loss)
    registry.histogram("train_imbalance", strategy=strategy_name).observe(result.imbalance)
    if context.router is not None:
        context.router.record_layers(step, moe_layers)


class RankTrainer:
    """One rank's handle on a running strategy: call train_step per step.

    Drives any :class:`~repro.parallel.step.DistributedStep` through the
    step protocol: advance the modelled dense compute, step the trainer on
    this rank's batch, report expert-load imbalance and observations.
    ``model`` is the module this rank holds (the whole model, or its
    pipeline stage).
    """

    def __init__(self, trainer: DistributedStep, model, loader, timer, comm, tokens,
                 strategy_name: str, dense_seconds: float | None):
        self.trainer = trainer
        self.model = model
        self.loader = loader
        self.timer = timer
        self.comm = comm
        self.tokens = tokens
        self.strategy_name = strategy_name
        #: Modelled dense compute advanced before each step (None: not
        #: modelled). When gradient sync overlaps, this is the forward
        #: share only — the trainer's ``backward_compute_hook`` advances the
        #: backward share while the bucketed allreduces are in flight.
        self.dense_seconds = dense_seconds
        self.moe_layers = [m for m in model.modules() if isinstance(m, MoELayer)]

    def train_step(self, step: int) -> StepResult:
        """Run distributed step ``step`` on this rank (collective call);
        the result's ``imbalance`` is filled in here."""
        if self.dense_seconds is not None:
            self.comm.advance(self.dense_seconds)
        outcome = self.trainer.train_step(self.loader.get_batch(step))
        _emit_step_observations(
            self.comm, step, outcome, self.moe_layers, self.strategy_name
        )
        return outcome


class _ZeroHybridOptimizer:
    """ZeRO-sharded Adam for replicated params + local Adam for experts.

    Replicated (dense) parameters have world-synchronized gradients, so
    :class:`~repro.parallel.zero.ZeroAdamW` over any subgroup computes the
    same update everywhere; expert shards get a plain local Adam (their
    gradients are EDP-synchronized, so local updates agree across
    replicas). Carries what the distributed step reads of an optimizer:
    ``params``, ``lr`` and ``step(grad_scale)``; the step hands ``lr`` to
    both halves.
    """

    def __init__(self, dense_params, expert_params, zero_comm: Comm, lr: float):
        self._zero = ZeroAdamW(dense_params, zero_comm, lr=lr)
        self._local = Adam(expert_params, lr=lr) if expert_params else None
        self.params = list(dense_params) + list(expert_params)
        self.lr = lr

    def step(self, grad_scale: float = 1.0) -> None:
        self._zero.lr = self.lr
        self._zero.step(grad_scale)
        if self._local is not None:
            self._local.lr = self.lr
            self._local.step(grad_scale)


# ---------------------------------------------------------------------- #
# The strategy of a layout
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ParallelStrategy:
    """A layout's family name plus the launch-time checks and build."""

    #: ``dp``/``ep``/``moda``/``tp``/``tp_ep``/``zero``/``pipeline``/
    #: ``pp_dp``/``pp_moda``; a metric label, not a switch.
    name: str

    def validate(self, cfg: "TrainingRunConfig") -> None:
        """Fail fast (driver-side) on a config no rank could run.

        ZeRO's two limits come first, then the layout-vs-model constraints
        (EP/TP/PP divisibility against the model's shape) from the shared
        :func:`~repro.layout.validate_layout_for_model`, so the measured
        runner and the analytic planner reject identical layouts with
        identical messages; pipeline layouts then check their workload.
        """
        layout = cfg.layout
        if layout.zero_shards > layout.world_size:
            raise ConfigError(
                f"zero_shards={layout.zero_shards} must not exceed "
                f"world_size={layout.world_size}"
            )
        if layout.zero_shards > 1 and (layout.tp_size > 1 or layout.pp_size > 1):
            raise ConfigError(
                f"zero_shards={layout.zero_shards} does not compose with tp or pp "
                f"yet, got {layout.describe()}"
            )
        validate_layout_for_model(layout, cfg.model)
        if layout.pp_size == 1:
            return
        if layout.tp_size != 1:
            raise ConfigError(
                f"pipeline strategies do not compose with tp yet, got {layout.describe()}"
            )
        if cfg.batch_size % cfg.num_microbatches != 0:
            raise ConfigError(
                f"num_microbatches={cfg.num_microbatches} must divide "
                f"batch_size={cfg.batch_size}"
            )
        if cfg.overlap_chunks > 1:
            raise ConfigError(
                f"pipeline strategies do not chunk expert dispatch yet, "
                f"got overlap_chunks={cfg.overlap_chunks}"
            )

    def build(
        self, comm: Comm, cfg: "TrainingRunConfig", machine: "MachineSpec | None"
    ) -> RankTrainer:
        """Construct groups/model/optimizer on one rank (collective)."""
        build = _build_pipeline if cfg.layout.pp_size > 1 else _build_plane
        return build(comm, cfg, machine, self.name)


def strategy_for_layout(layout: ParallelLayout) -> ParallelStrategy:
    """The strategy a layout describes.

    Pipeline beats TP beats ZeRO in the dispatch order; within each, the
    expert axis selects the composite variant.
    """
    if layout.pp_size > 1:
        if layout.ep_size > 1:
            return ParallelStrategy("pp_moda")
        if layout.plane_size > 1:
            return ParallelStrategy("pp_dp")
        return ParallelStrategy("pipeline")
    if layout.tp_size > 1:
        return ParallelStrategy("tp_ep" if layout.ep_size > 1 else "tp")
    if layout.zero_shards > 1:
        return ParallelStrategy("zero")
    if layout.ep_size == 1:
        return ParallelStrategy("dp")
    if layout.ep_size == layout.world_size:
        return ParallelStrategy("ep")
    return ParallelStrategy("moda")


# ---------------------------------------------------------------------- #
# Shared build helpers
# ---------------------------------------------------------------------- #


def _timer(cfg: "TrainingRunConfig", machine) -> ComputeTimer | None:
    if machine is None or not cfg.model_compute_time:
        return None
    return ComputeTimer(cfg.model, machine, cfg.seq_len, tp_size=cfg.layout.tp_size)


def _compute_hooks(comm: Comm, cfg: "TrainingRunConfig", timer: ComputeTimer | None):
    """``(expert_hook(rows), backward_hook())``: advance the modelled
    expert-layer / dense-backward compute on the virtual clock."""

    def expert_hook(rows: int) -> None:
        if timer is not None:
            comm.advance(timer.expert_layer_time(rows))

    def backward_hook() -> None:
        if timer is not None:
            comm.advance(timer.dense_backward_time(cfg.batch_size * cfg.seq_len))

    return expert_hook, backward_hook


def _scaler(cfg: "TrainingRunConfig", model) -> DynamicLossScaler | None:
    if not cfg.mixed_precision:
        return None
    cast_model(model, "fp16")
    return DynamicLossScaler(init_scale=2.0**12, growth_interval=50)


def _corpus(cfg: "TrainingRunConfig") -> SyntheticCorpus:
    return SyntheticCorpus(
        vocab_size=cfg.model.vocab_size,
        predictability=cfg.corpus_predictability,
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------- #
# The two build bodies
# ---------------------------------------------------------------------- #


def _build_plane(comm, cfg, machine, name: str) -> RankTrainer:
    """In-plane layouts (dp/ep/moda/tp/tp_ep/zero) through MoDaTrainer."""
    layout = cfg.layout
    timer = _timer(cfg, machine)
    compute_hook, backward_hook = _compute_hooks(comm, cfg, timer)
    overlap = cfg.overlap_chunks > 1
    groups = build_groups(comm, layout)
    model = build_moda_model(
        cfg.model,
        groups,
        seed=cfg.seed,
        alltoall_algorithm=cfg.alltoall_algorithm,
        allreduce_algorithm=cfg.allreduce_algorithm,
        compute_hook=compute_hook,
        overlap_chunks=cfg.overlap_chunks,
    )
    scaler = _scaler(cfg, model)
    if groups.zero is not None:
        dense, expert = split_params(model)
        optimizer = _ZeroHybridOptimizer(dense, expert, groups.zero, lr=cfg.lr)
    else:
        optimizer = Adam(model.parameters(), lr=cfg.lr)
    trainer = MoDaTrainer(
        model,
        optimizer,
        groups,
        schedule=ConstantLR(cfg.lr),
        scaler=scaler,
        allreduce_algorithm=cfg.allreduce_algorithm,
        grad_sync_buckets=cfg.overlap_chunks,
        backward_compute_hook=backward_hook if overlap else None,
    )
    r = comm.rank
    data_rank = layout.dp_index_of(r) * layout.ep_size + layout.ep_rank_of(r)
    loader = ShardedLoader(
        _corpus(cfg), cfg.batch_size, cfg.seq_len,
        dp_rank=data_rank, dp_size=layout.data_streams,
    )
    tokens = cfg.batch_size * cfg.seq_len
    dense_seconds = None
    if timer is not None:
        dense_seconds = (
            timer.dense_forward_time(tokens) if overlap else timer.dense_step_time(tokens)
        )
    return RankTrainer(trainer, model, loader, timer, comm, tokens, name, dense_seconds)


def _build_pipeline(comm, cfg, machine, name: str) -> RankTrainer:
    """Pipeline layouts (pipeline/pp_dp/pp_moda) through Trainer3D."""
    layout = cfg.layout
    timer = _timer(cfg, machine)
    compute_hook, _ = _compute_hooks(comm, cfg, timer)
    groups = build_groups(comm, layout)
    trainer = Trainer3D(
        cfg.model,
        groups,
        num_microbatches=cfg.num_microbatches,
        seed=cfg.seed,
        schedule=ConstantLR(cfg.lr),
        alltoall_algorithm=cfg.alltoall_algorithm,
        allreduce_algorithm=cfg.allreduce_algorithm,
        compute_hook=compute_hook,
    )
    scaler = _scaler(cfg, trainer.stage)
    trainer.scaler = scaler
    trainer.attach_optimizer(Adam(trainer.stage.parameters(), lr=cfg.lr))
    loader = ShardedLoader(
        _corpus(cfg), cfg.batch_size, cfg.seq_len,
        dp_rank=groups.pipeline_id, dp_size=layout.plane_size,
    )
    tokens = cfg.batch_size * cfg.seq_len
    # Each stage holds ~1/pp of the layers, so the dense compute per
    # rank is the full-model step time split across stages.
    dense_seconds = None if timer is None else timer.dense_step_time(tokens) / layout.pp_size
    return RankTrainer(trainer, trainer.stage, loader, timer, comm, tokens, name, dense_seconds)
