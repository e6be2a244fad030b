"""Turn-key SPMD experiment runner over every parallel layout.

One parametrized entry point covers the measured side of every strategy
comparison (experiment T3 and the measured halves of F1/F2). The layout
knobs (``ep_size``, ``tp_size``, ``pp_size``, ``zero_shards``) are the
strategy (:func:`~repro.parallel.strategy.strategy_for_layout`):

* ``ep_size=1``                  -> pure data parallelism;
* ``ep_size=world, flat``        -> naive expert parallelism;
* ``1 < ep_size`` + hierarchical -> the MoDa hybrid;
* ``tp_size/pp_size/zero_shards``-> tensor, pipeline, and ZeRO runs, and
  the TP x EP / PP x DP / PP x MoDa composites — all through the same
  dispatch.

Each rank trains on its own data shard; virtual clocks advance by modelled
compute (via :class:`~repro.perf.ComputeTimer`) and by the network cost of
every communication operation, so the run's ``simulated_time`` is a
topology-aware per-step cost measurement. The run's
:class:`~repro.simmpi.RunContext` (traffic + trace + phase timers) comes
back on the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.errors import ConfigError
from repro.hardware.specs import MachineSpec, sunway_machine
from repro.layout import ParallelLayout
from repro.models.configs import ModelConfig
from repro.network.costmodel import NetworkModel
from repro.network.presets import sunway_network
from repro.parallel.strategy import ParallelStrategy, strategy_for_layout
from repro.perf.plan import ParallelPlan
from repro.simmpi import RunContext, run_spmd

__all__ = ["TrainingRunConfig", "TrainingRunResult", "run_distributed_training"]


@dataclass(frozen=True)
class TrainingRunConfig:
    """Everything needed to launch one measured SPMD training run."""

    model: ModelConfig
    world_size: int
    ep_size: int = 1
    num_steps: int = 4
    batch_size: int = 4
    seq_len: int = 16
    lr: float = 1e-3
    seed: int = 0
    corpus_predictability: float = 0.8
    alltoall_algorithm: str | None = None
    allreduce_algorithm: str | None = None
    mixed_precision: bool = False
    model_compute_time: bool = True
    timeout: float = 600.0
    #: Tensor-parallel group width (shards dense FFN blocks).
    tp_size: int = 1
    #: Pipeline stages (GPipe over layer blocks).
    pp_size: int = 1
    #: ZeRO-1 optimizer-state sharding factor (1 = off).
    zero_shards: int = 1
    #: Microbatches per step for pipeline strategies.
    num_microbatches: int = 2
    #: Comm/compute overlap width: >1 splits expert dispatch into that
    #: many pipelined chunks (bitwise-identical math) and buckets the
    #: gradient allreduce to overlap with backward compute. Rejected by
    #: pipeline strategies (their dispatch is not chunked).
    overlap_chunks: int = 1
    #: Record TraceEvents (Chrome-trace exportable via the RunContext).
    trace: bool = False
    #: Give the run a live metric registry + router telemetry
    #: (``result.context.metrics`` / ``.router``); off by default so the
    #: hot path stays on the no-op registry.
    observe: bool = False

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {self.num_steps}")
        # Written as ``not x > 0`` so that NaN is refused too.
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.corpus_predictability <= 1.0:
            raise ConfigError(
                f"corpus_predictability must be in [0, 1], got {self.corpus_predictability}"
            )
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0 wall seconds, got {self.timeout}")
        # Every layout and workload field is checked by building the plan.
        self.plan.check_seq_len(self.model)

    @cached_property
    def plan(self) -> ParallelPlan:
        """The analytic plan of exactly this run (balanced routing)."""
        return ParallelPlan(
            num_nodes=self.world_size,
            ep_size=self.ep_size,
            tp_size=self.tp_size,
            pp_size=self.pp_size,
            zero_shards=self.zero_shards,
            micro_batch=self.batch_size,
            seq_len=self.seq_len,
            num_microbatches=self.num_microbatches,
            overlap_chunks=self.overlap_chunks,
            alltoall=self.alltoall_algorithm,
            allreduce=self.allreduce_algorithm,
        )

    @property
    def layout(self) -> ParallelLayout:
        """The validated parallel layout this config describes."""
        return self.plan.layout

    def resolve_strategy(self) -> ParallelStrategy:
        """The strategy this run's layout describes."""
        return strategy_for_layout(self.layout)


@dataclass
class TrainingRunResult:
    """Aggregated outcome of one run."""

    #: Global (world-averaged) loss per step.
    losses: list[float]
    #: Virtual makespan in seconds.
    simulated_time: float
    #: Virtual seconds per training step (makespan / steps).
    step_time: float
    #: Traffic summary from the engine.
    traffic: dict[str, Any]
    #: Per-rank expert-load imbalance (max/mean) averaged over steps.
    load_imbalance: float
    meta: dict[str, Any] = field(default_factory=dict)
    #: Virtual seconds per phase (forward/backward/grad_sync/...).
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: The run's instrumentation spine (stats + trace + phases).
    context: RunContext | None = None
    #: TraceEvents when cfg.trace was set, else None.
    trace: list[Any] | None = None


def _rank_program(comm, cfg: TrainingRunConfig, machine: MachineSpec):
    strategy = cfg.resolve_strategy()
    trainer = strategy.build(comm, cfg, machine)
    losses: list[float] = []
    imbalances: list[float] = []
    for step in range(cfg.num_steps):
        outcome = trainer.train_step(step)
        losses.append(outcome.global_loss)
        imbalances.append(outcome.imbalance)
    return {
        "losses": losses,
        "imbalance": float(np.mean(imbalances)) if imbalances else 1.0,
    }


def run_distributed_training(
    cfg: TrainingRunConfig,
    network: NetworkModel | None = None,
    machine: MachineSpec | None = None,
) -> TrainingRunResult:
    """Execute the SPMD training run and aggregate per-rank results.

    The config's layout selects how groups, model wrapper, and the
    distributed step are built on every rank.
    """
    strategy = cfg.resolve_strategy()
    strategy.validate(cfg)
    network = network or sunway_network(cfg.world_size)
    machine = machine or sunway_machine(num_nodes=cfg.world_size)
    spmd = run_spmd(
        _rank_program,
        cfg.world_size,
        network=network,
        timeout=cfg.timeout,
        args=(cfg, machine),
        trace=cfg.trace,
        observe=cfg.observe,
    )
    losses = spmd.returns[0]["losses"]
    for r in spmd.returns[1:]:
        if not np.allclose(r["losses"], losses):
            raise ConfigError("ranks disagree on the global loss trajectory")
    context = spmd.context
    return TrainingRunResult(
        losses=losses,
        simulated_time=spmd.simulated_time,
        step_time=spmd.simulated_time / cfg.num_steps,
        traffic=spmd.stats.summary(),
        load_imbalance=float(np.mean([r["imbalance"] for r in spmd.returns])),
        meta={
            "world_size": cfg.world_size,
            "ep_size": cfg.ep_size,
            "tp_size": cfg.tp_size,
            "pp_size": cfg.pp_size,
            "zero_shards": cfg.zero_shards,
            "strategy": strategy.name,
            "overlap_chunks": cfg.overlap_chunks,
            "mixed_precision": cfg.mixed_precision,
            "alltoall": cfg.alltoall_algorithm,
            "allreduce": cfg.allreduce_algorithm,
        },
        phase_seconds=context.phase_seconds if context is not None else {},
        context=context,
        trace=spmd.trace,
    )
