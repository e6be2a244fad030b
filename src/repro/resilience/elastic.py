"""Elastic training segments: run a logical world on fewer ranks, exactly.

The supervisor's central trick is *shrink-and-reshard*: when a node is
gone for good, finish the job on half the ranks. The catch is
reproducibility — this repo's training is deterministic, and the
resilience tests (like BaGuaLu-class production debugging) demand that a
recovered run reproduce the healthy trajectory bit for bit. Naively
re-sharding data across a smaller world changes both the batch→rank
assignment and the floating-point reduction order, which changes every
loss after the restore point.

:class:`ElasticStepDriver` avoids both: a world of ``W`` ranks executes a
*logical* world of ``W0 = k*W`` ranks by running ``k`` accumulation
microsteps per optimizer step. At microstep ``m``, physical rank ``r``
plays logical rank ``m*W + r``:

* **data**: the microstep loader reads logical rank ``m*W + r``'s stream
  (``dp_size = W0``), so every batch lands exactly where the full world
  would have put it;
* **experts**: the EP width is preserved, and because EP groups are
  consecutive ranks, microstep ``m``'s EP groups are exactly logical EP
  groups ``m*W/ep .. (m+1)*W/ep - 1`` — all MoE alltoalls and expert
  matmuls replay bitwise;
* **reductions**: the simulated allreduce left-folds contributions in
  group-rank order, so the healthy fold ``((g0+g1)+g2)+g3`` is reproduced
  by *fold-carry* accumulation — at microstep ``m``, group rank 0
  contributes ``acc + g`` (the carried partial sum plus its fresh
  gradient), making the chained fold associate exactly like one wide
  fold. The final accumulator divides by the **logical** group size.

The same fold-carry chain reproduces the world-averaged loss. When the
EP width itself must shrink, expert-gradient matmuls regroup their row
reductions, so equality is only guaranteed up to float reassociation —
in practice the test configurations reproduce bitwise there too (each
row's forward is independent, and the split accumulations agree), and
the supervisor preserves ``ep`` whenever it divides the shrunken world.

Exactness assumes deterministic routing (the default ``topk`` gate);
stochastic gates draw per-rank RNG whose streams do not survive the
rank remapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.data import ShardedLoader
from repro.errors import ConfigError
from repro.parallel.dist_checkpoint import load_distributed, save_distributed
from repro.parallel.dp import flatten_grads, unflatten_grads
from repro.parallel.moda import MoDaTrainer
from repro.parallel.runner import TrainingRunConfig
from repro.parallel.strategy import _corpus, _emit_step_observations
from repro.train.trainer import StepResult, apply_update

__all__ = ["ElasticStepDriver", "SegmentProgress", "SegmentSpec"]


@dataclass
class SegmentProgress:
    """Mutable side-channel between a running segment and the supervisor.

    ``run_spmd`` passes args by reference, so rank 0's updates stay
    visible to the supervisor even when the launch later dies — this is
    how lost step-work (completed but not yet durable) is measured.
    """

    completed_step: int = 0
    durable_step: int = 0


@dataclass(frozen=True)
class SegmentSpec:
    """Everything one elastic training segment needs, shipped to ranks."""

    run_cfg: TrainingRunConfig
    #: The original (full) world size whose trajectory we reproduce.
    logical_world: int
    #: The original EP width (sets the expert-gradient divisor).
    logical_ep: int
    checkpoint_every: int
    checkpoint_dir: str
    resume_dir: str | None
    progress: SegmentProgress
    machine: Any = None


class ElasticStepDriver:
    """Drives ``k = logical_world / world`` accumulation microsteps per step.

    Wraps a built in-plane rank trainer (a
    :class:`~repro.parallel.strategy.RankTrainer` around a
    :class:`~repro.parallel.moda.MoDaTrainer`). Of the shared step it
    keeps the schedule, the local gradient producer, ``apply_update`` and
    the phase recording; what it replaces is the part that is genuinely its
    own — gradient sync and the global loss become the fold-carry
    accumulation described in the module docstring, averaged by the
    *logical* group sizes. With ``logical_world == world`` this degenerates
    to the plain MoDa step (``k=1``) and produces bitwise-identical
    updates. Gradients are never loss-scaled here (the scaler is unused).
    """

    def __init__(self, plane, logical_world: int, logical_ep: int, cfg: TrainingRunConfig):
        trainer = getattr(plane, "trainer", None)
        if not isinstance(trainer, MoDaTrainer):
            raise ConfigError(
                "elastic training needs an in-plane strategy trainer "
                "(dp/ep/moda); got an incompatible rank trainer"
            )
        self.trainer = trainer
        self.model = plane.model
        self.timer = plane.timer
        self.comm = plane.comm
        self.tokens = plane.tokens
        self.logical_world = int(logical_world)
        self.logical_ep = int(logical_ep)
        world = self.comm.size
        if self.logical_world % world != 0:
            raise ConfigError(
                f"logical world {self.logical_world} must be a multiple of "
                f"the physical world {world}"
            )
        if self.logical_world % self.logical_ep != 0:
            raise ConfigError(
                f"logical ep {self.logical_ep} must divide logical world "
                f"{self.logical_world}"
            )
        self.k = self.logical_world // world
        #: Final divisors: the *logical* group sizes, so accumulated
        #: gradients average exactly as the full world's would.
        self.divisors = {
            "dense": float(self.logical_world),
            "expert": float(self.logical_world // self.logical_ep),
        }
        for label, _, _ in trainer.sync_groups:
            if label not in self.divisors:
                raise ConfigError(
                    f"elastic accumulation cannot average sync group "
                    f"{label!r} (only dense/expert axes are supported)"
                )
        corpus = _corpus(cfg)
        # Microstep m reads logical rank (m*W + r)'s data stream.
        self.loaders = [
            ShardedLoader(
                corpus, cfg.batch_size, cfg.seq_len,
                dp_rank=m * world + self.comm.rank, dp_size=self.logical_world,
            )
            for m in range(self.k)
        ]

    def train_step(self, step: int) -> StepResult:
        """One optimizer step = ``k`` fold-carry accumulation microsteps
        (``extras["microsteps"]`` is ``k``)."""
        trainer = self.trainer
        world = trainer.world
        lr = trainer.next_lr()

        acc: dict[str, np.ndarray] = {}
        loss_fold = 0.0
        loss_value = 0.0
        phases = {"forward": 0.0, "backward": 0.0, "grad_sync": 0.0}
        for m in range(self.k):
            batch = self.loaders[m].get_batch(step)
            self.model.zero_grad()
            if self.timer is not None:
                self.comm.advance(self.timer.dense_step_time(self.tokens))
            loss_value, produced = trainer.produce(batch, 1.0)
            for name, seconds in produced.items():
                phases[name] += seconds
            t0 = world.clock
            for label, params, comm_g in trainer.sync_groups:
                flat = flatten_grads(params)
                if comm_g.rank == 0 and m > 0:
                    # Fold-carry: group rank 0 contributes the carried
                    # partial sum + its fresh gradient, so the chained
                    # fold associates exactly like the full-world fold.
                    flat = acc[label] + flat
                acc[label] = comm_g.allreduce(
                    flat, algorithm=trainer.allreduce_algorithm
                )
            fold = loss_fold + loss_value if (world.rank == 0 and m > 0) else loss_value
            loss_fold = float(world.allreduce(fold))
            phases["grad_sync"] += world.clock - t0

        for label, params, _ in trainer.sync_groups:
            unflatten_grads(params, acc[label] / self.divisors[label])
        skipped = apply_update(trainer.optimizer, None, 1.0, False)
        result = trainer.finish_step(
            phases,
            {"microsteps": self.k},
            loss=loss_value,
            global_loss=loss_fold / self.logical_world,
            lr=lr,
            grad_norm=None,
            skipped=skipped,
            loss_scale=1.0,
        )
        # Same registry/router series as the measured runs. The loads are
        # the last microstep's (each training forward overwrites a layer's
        # local load), allreduced once over the EP group here.
        _emit_step_observations(
            world, step, result, self.model.moe_layers(), strategy_name="elastic"
        )
        return result


def run_elastic_segment(comm, spec: SegmentSpec) -> dict[str, Any]:
    """SPMD rank program: train from the latest snapshot to completion.

    Builds the rank trainer its layout describes, restores the
    resume snapshot (parameters *and* optimizer state, under any layout),
    then steps the :class:`ElasticStepDriver`, checkpointing every
    ``checkpoint_every`` steps. Dies wherever the fault plan/model says.
    """
    cfg = spec.run_cfg
    strategy = cfg.resolve_strategy()
    plane = strategy.build(comm, cfg, spec.machine)
    trainer = plane.trainer
    model = plane.model
    start = 0
    if spec.resume_dir is not None:
        meta = load_distributed(
            Path(spec.resume_dir), model, optimizer=trainer.optimizer
        )
        start = int(meta["step"])
    trainer.step_count = start
    driver = ElasticStepDriver(plane, spec.logical_world, spec.logical_ep, cfg)

    losses: list[float] = []
    ckpts: list[int] = []
    for step in range(start, cfg.num_steps):
        out = driver.train_step(step)
        losses.append(out.global_loss)
        done = step + 1
        if comm.rank == 0:
            spec.progress.completed_step = done
        if done % spec.checkpoint_every == 0 or done == cfg.num_steps:
            save_distributed(
                Path(spec.checkpoint_dir) / f"step-{done:06d}",
                model,
                trainer.groups,
                step=done,
                optimizer=trainer.optimizer,
            )
            ckpts.append(done)
            if comm.rank == 0:
                spec.progress.durable_step = done
    return {"losses": losses, "start": start, "ckpts": ckpts}
