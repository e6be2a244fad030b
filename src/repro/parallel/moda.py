"""MoDa: the hybrid data x expert parallel training strategy.

This module wires everything together for one rank of an SPMD program:

* :func:`build_moda_model` — an :class:`~repro.models.MoELanguageModel`
  whose MoE FFNs are :class:`~repro.parallel.ep.DistributedMoELayer`
  sharded over the rank's EP group; replicated parameters are
  bit-identical across ranks by construction (shared RNG streams).
* :class:`MoDaTrainer` — the distributed step: local forward/backward,
  dense-gradient allreduce over the world, expert-gradient allreduce over
  the expert-data-parallel group, globally-agreed loss-scale handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.amp import DynamicLossScaler, grads_have_overflow
from repro.data.loader import Batch
from repro.errors import ConfigError
from repro.models.configs import ModelConfig
from repro.models.module import Module, Parameter
from repro.models.transformer import MoELanguageModel
from repro.parallel.dp import (
    allreduce_gradients,
    broadcast_parameters,
    iallreduce_gradients,
)
from repro.parallel.ep import ep_moe_factory
from repro.parallel.groups import MoDaGroups
from repro.simmpi import MAX
from repro.train.clip import clip_grad_norm, global_grad_norm
from repro.train.optim import Optimizer
from repro.train.schedules import ConstantLR, LRSchedule

__all__ = ["build_moda_model", "split_params", "MoDaTrainer", "MoDaStepResult"]


def build_moda_model(
    config: ModelConfig,
    groups: MoDaGroups,
    seed: int = 0,
    alltoall_algorithm: str | None = None,
    compute_hook: Callable[[int], None] | None = None,
    overlap_chunks: int = 1,
) -> MoELanguageModel:
    """Construct the per-rank model for MoDa training.

    Dense/router parameters come from RNG streams consumed identically on
    every rank; expert parameters are seeded per global expert id, so the
    *model* (the union of all shards) is independent of the layout.
    """
    moe_factory = ep_moe_factory(
        config, groups.ep, seed, alltoall_algorithm, compute_hook, overlap_chunks
    )
    return MoELanguageModel(config, seed=seed, moe_factory=moe_factory)


def split_params(model: Module) -> tuple[list[Parameter], list[Parameter]]:
    """(dense_params, expert_params) partition of a model's parameters."""
    dense, expert = [], []
    for p in model.parameters():
        (expert if getattr(p, "is_expert", False) else dense).append(p)
    return dense, expert


@dataclass
class MoDaStepResult:
    """Per-rank metrics from one distributed step."""

    step: int
    loss: float
    global_loss: float
    lr: float
    grad_norm: float
    skipped: bool
    loss_scale: float
    dense_sync_bytes: int
    expert_sync_bytes: int
    extras: dict[str, float] = field(default_factory=dict)


class MoDaTrainer:
    """One rank's view of synchronous MoDa training.

    The step anatomy (matching the single-process
    :class:`~repro.train.Trainer` plus communication):

    1. local forward + scaled backward;
    2. allreduce dense gradients over ``groups.world`` (average);
    3. allreduce expert gradients over ``groups.edp`` (average);
    4. *global* overflow agreement (max-allreduce of the local flag) so
       every rank skips or steps together;
    5. optimizer step with the scaler's inverse scale.
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
        overlap_grad_sync: bool = False,
        grad_sync_buckets: int = 1,
        backward_compute_hook: Callable[[], None] | None = None,
    ):
        if grad_sync_buckets < 1:
            raise ConfigError(
                f"grad_sync_buckets must be >= 1, got {grad_sync_buckets}"
            )
        self.model = model
        self.optimizer = optimizer
        self.groups = groups
        self.schedule = schedule or ConstantLR(optimizer.lr)
        self.scaler = scaler
        self.grad_clip = grad_clip
        self.allreduce_algorithm = allreduce_algorithm
        #: When set, gradient sync issues nonblocking bucketed allreduces
        #: for every sync group, runs ``backward_compute_hook`` (which the
        #: strategy layer uses to advance the modelled backward compute on
        #: the virtual clock), then waits — hiding sync behind backward.
        #: Gradient values are numerically identical to the blocking path.
        self.overlap_grad_sync = overlap_grad_sync
        self.grad_sync_buckets = grad_sync_buckets
        self.backward_compute_hook = backward_compute_hook
        self.step_count = 0
        self.history: list[MoDaStepResult] = []
        self.dense_params, self.expert_params = split_params(model)
        #: ``(label, params, comm)`` triples describing how gradients are
        #: averaged; subclasses override :meth:`_build_sync_groups` to add
        #: axes (e.g. TP-sharded params over the same-shard group).
        self.sync_groups = self._build_sync_groups()
        if sync_initial_params:
            # Belt and braces: construction already makes replicas equal,
            # but an explicit broadcast pins the invariant.
            for _, params, comm in self.sync_groups:
                broadcast_parameters(comm, params, root=0)

    def _build_sync_groups(self):
        """Gradient-sync plan: dense over the world, experts over EDP."""
        return [
            ("dense", self.dense_params, self.groups.world),
            ("expert", self.expert_params, self.groups.edp),
        ]

    def _sync_gradients(self) -> dict[str, int]:
        """Average each sync group's gradients; bytes moved per label."""
        return {
            label: allreduce_gradients(
                comm, params, average=True, algorithm=self.allreduce_algorithm
            )
            for label, params, comm in self.sync_groups
        }

    def _sync_gradients_overlapped(self) -> dict[str, int]:
        """Overlapped variant: issue every group's bucketed nonblocking
        allreduce, advance the modelled backward compute, then wait.

        Each bucket is a contiguous slice of the flat fp32 gradient, so
        the element-wise sums are bit-identical to the single-bucket
        blocking allreduce.
        """
        pending = [
            (label, iallreduce_gradients(
                comm, params, average=True,
                algorithm=self.allreduce_algorithm,
                num_buckets=self.grad_sync_buckets,
            ))
            for label, params, comm in self.sync_groups
        ]
        if self.backward_compute_hook is not None:
            self.backward_compute_hook()
        return {label: handle.wait() for label, handle in pending}

    def evaluate(self, loader, num_steps: int, start_step: int = 0) -> dict[str, float]:
        """Distributed held-out evaluation: every rank scores its own data
        shard and the mean loss/perplexity is allreduced over the world.

        Collective call — all ranks must participate with the same
        arguments. Gradients and step counters are untouched.
        """
        if num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
        from repro.tensor import no_grad

        was_training = self.model.training
        self.model.eval()
        total, count = 0.0, 0
        try:
            with no_grad():
                for batch in loader.iter_batches(num_steps, start_step=start_step):
                    loss = self.model.loss(batch.tokens, batch.targets)
                    total += float(loss.item())
                    count += 1
        finally:
            if was_training:
                self.model.train()
        local_mean = total / count
        global_mean = (
            float(self.groups.world.allreduce(local_mean)) / self.groups.world.size
        )
        return {
            "loss": global_mean,
            "perplexity": float(np.exp(min(global_mean, 50.0))),
        }

    def train_step(self, batch: Batch) -> MoDaStepResult:
        """Run one synchronous distributed step on this rank's batch."""
        groups = self.groups
        lr = self.schedule(self.step_count)
        self.optimizer.lr = lr
        self.model.zero_grad()

        # Virtual-clock phase breakdown (seconds of simulated time).
        t0 = groups.world.clock
        loss = self.model.loss(batch.tokens, batch.targets)
        loss_value = float(loss.item())
        t_forward = groups.world.clock - t0

        scale = self.scaler.scale if self.scaler is not None else 1.0
        t1 = groups.world.clock
        loss.backward(np.asarray(scale, dtype=loss.data.dtype))
        t_backward = groups.world.clock - t1

        t2 = groups.world.clock
        if self.overlap_grad_sync:
            sync_bytes = self._sync_gradients_overlapped()
        else:
            sync_bytes = self._sync_gradients()
        t_grad_sync = groups.world.clock - t2

        local_overflow = (
            1.0
            if self.scaler is not None and grads_have_overflow(self.optimizer.params)
            else 0.0
        )
        # All ranks must agree on the skip decision (expert shards differ).
        overflow = bool(groups.world.allreduce(local_overflow, op=MAX) > 0)

        inv = 1.0 / scale
        skipped = False
        if self.scaler is not None and overflow:
            skipped = True
            grad_norm = float("inf")
            self.scaler.update(found_overflow=True)
        else:
            if self.grad_clip is not None:
                grad_norm = clip_grad_norm(self.optimizer.params, self.grad_clip, grad_scale=inv)
            else:
                grad_norm = global_grad_norm(self.optimizer.params, grad_scale=inv)
            self.optimizer.step(grad_scale=inv)
            if self.scaler is not None:
                self.scaler.update(found_overflow=False)

        global_loss = float(groups.world.allreduce(loss_value)) / groups.world.size

        # Report the phase breakdown into the run's instrumentation spine
        # (only rank 0 of the world group, so totals aren't multiplied by
        # the world size).
        context = groups.world.context
        if groups.world.rank == 0:
            context.add_phase("forward", t_forward)
            context.add_phase("backward", t_backward)
            context.add_phase("grad_sync", t_grad_sync)

        extras: dict[str, float] = {
            "t_forward": t_forward,
            "t_backward": t_backward,
            "t_grad_sync": t_grad_sync,
        }
        for label, nbytes in sync_bytes.items():
            if label not in ("dense", "expert"):
                extras[f"{label}_sync_bytes"] = float(nbytes)
        result = MoDaStepResult(
            step=self.step_count,
            loss=loss_value,
            global_loss=global_loss,
            lr=lr,
            grad_norm=grad_norm,
            skipped=skipped,
            loss_scale=scale,
            dense_sync_bytes=sync_bytes.get("dense", 0),
            expert_sync_bytes=sync_bytes.get("expert", 0),
            extras=extras,
        )
        self.step_count += 1
        self.history.append(result)
        return result
