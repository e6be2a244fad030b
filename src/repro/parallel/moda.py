"""MoDa: the hybrid data x expert parallel training strategy.

This module wires everything together for one rank of an SPMD program:

* :func:`build_moda_model` — an :class:`~repro.models.MoELanguageModel`
  whose MoE FFNs are :class:`~repro.parallel.ep.DistributedMoELayer`
  sharded over the rank's EP group (and, when the layout has a TP axis,
  whose dense FFNs are :class:`~repro.parallel.tp.TensorParallelMLP`);
  replicated parameters are bit-identical across ranks by construction
  (shared RNG streams).
* :func:`sync_plan` — the one gradient-sync list every trainer uses.
* :class:`MoDaTrainer` — the shared distributed step
  (:mod:`repro.parallel.step`) with local forward/backward and that plan.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.amp import DynamicLossScaler
from repro.errors import ConfigError
from repro.models.configs import ModelConfig
from repro.models.module import Module, Parameter
from repro.models.transformer import MoELanguageModel
from repro.parallel.dp import broadcast_parameters
from repro.parallel.ep import ep_moe_factory
from repro.parallel.groups import MoDaGroups
from repro.parallel.step import DistributedStep, SyncGroup, local_gradients
from repro.parallel.tp import TensorParallelMLP
from repro.train.optim import Optimizer
from repro.train.schedules import LRSchedule
from repro.train.trainer import eval_loss, eval_report

__all__ = ["build_moda_model", "split_params", "MoDaTrainer"]


def build_moda_model(
    config: ModelConfig,
    groups: MoDaGroups,
    seed: int = 0,
    alltoall_algorithm: str | None = None,
    compute_hook: Callable[[int], None] | None = None,
    overlap_chunks: int = 1,
) -> MoELanguageModel:
    """Construct the per-rank model for in-plane training.

    Dense/router parameters come from RNG streams consumed identically on
    every rank; expert parameters are seeded per global expert id, so the
    *model* (the union of all shards) is independent of the layout. With
    ``groups.tp`` set, dense FFN blocks are sharded over it; the factory
    draws full weights from the shared per-block rng before sharding.
    """
    moe_factory = ep_moe_factory(
        config, groups.ep, seed, alltoall_algorithm, compute_hook, overlap_chunks
    )
    mlp_factory = None
    if groups.tp is not None:

        def mlp_factory(layer_idx: int, rng: np.random.Generator):
            return TensorParallelMLP(
                config.d_model, config.d_ff, groups.tp, rng, dtype=config.dtype
            )

    return MoELanguageModel(
        config, seed=seed, moe_factory=moe_factory, mlp_factory=mlp_factory
    )


def split_params(model: Module) -> tuple[list[Parameter], list[Parameter]]:
    """(dense_params, expert_params) partition of a model's parameters."""
    dense, expert = [], []
    for p in model.parameters():
        (expert if getattr(p, "is_expert", False) else dense).append(p)
    return dense, expert


def sync_plan(module: Module, groups: MoDaGroups) -> list[SyncGroup]:
    """How ``module``'s gradients are averaged: replicated dense parameters
    over the stage plane, TP shards over their same-shard replicas
    (``tpdp``), expert shards over their EP-position replicas (``edp``)."""
    dense, expert = split_params(module)
    replicated = [p for p in dense if not getattr(p, "is_tp", False)]
    tp_shards = [p for p in dense if getattr(p, "is_tp", False)]
    plan = [("dense", replicated, groups.plane)]
    if tp_shards:
        plan.append(("tp", tp_shards, groups.tpdp))
    plan.append(("expert", expert, groups.edp))
    return plan


class MoDaTrainer(DistributedStep):
    """One rank's view of synchronous in-plane training.

    The shared :class:`~repro.parallel.step.DistributedStep` with the local
    gradient producer (``model.loss`` + scaled backward), gradients
    averaged by :func:`sync_plan` and the loss averaged over the world.
    """

    def __init__(
        self,
        model: MoELanguageModel,
        optimizer: Optimizer,
        groups: MoDaGroups,
        schedule: LRSchedule | None = None,
        scaler: DynamicLossScaler | None = None,
        grad_clip: float | None = None,
        allreduce_algorithm: str | None = None,
        sync_initial_params: bool = True,
        grad_sync_buckets: int = 1,
        backward_compute_hook: Callable[[], None] | None = None,
    ):
        if grad_sync_buckets < 1:
            raise ConfigError(
                f"grad_sync_buckets must be >= 1, got {grad_sync_buckets}"
            )
        self.model = model
        self.groups = groups
        super().__init__(
            model, groups.world, groups.world, local_gradients(model, groups.world),
            sync_plan(model, groups), optimizer, schedule, scaler, grad_clip,
            allreduce_algorithm,
        )
        self.grad_sync_buckets = grad_sync_buckets
        self.backward_compute_hook = backward_compute_hook
        if sync_initial_params:
            # Belt and braces: construction already makes replicas equal,
            # but an explicit broadcast pins the invariant.
            for _, params, comm in self.sync_groups:
                broadcast_parameters(comm, params, root=0)

    def evaluate(self, loader, num_steps: int, start_step: int = 0) -> dict[str, float]:
        """Distributed held-out evaluation: every rank scores its own data
        shard and the mean loss/perplexity is allreduced over the world.

        Collective call — all ranks must participate with the same
        arguments. Gradients and step counters are untouched.
        """
        local_mean = eval_loss(self.model, loader, num_steps, start_step)
        world = self.groups.world
        return eval_report(float(world.allreduce(local_mean)) / world.size)
