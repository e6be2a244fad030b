"""3D parallelism: pipeline x data x expert (the Megatron-style superset).

The world is factored as ``pipe_size`` stage *planes* of
``dp_size x ep_size`` ranks:

* ranks in the same plane hold the same pipeline stage; within the plane
  they run MoDa (dense params data-parallel, experts sharded over EP
  groups);
* ranks at the same plane position across planes form one *pipeline* and
  stream microbatches GPipe-style.

Rank layout (world rank ``r``)::

    stage       = r // plane_size          (outermost)
    plane_rank  = r %  plane_size          (= pipeline id)
    ep_group    = plane_rank // ep_size
    ep_rank     = plane_rank %  ep_size

Each pipeline consumes its own data shard (``dp_stream = plane_rank``), so
the *global* batch is the concatenation over plane positions — exactly the
data-parallel semantics of plain MoDa, now with layers also split across
stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.amp import DynamicLossScaler, grads_have_overflow
from repro.data.loader import Batch
from repro.errors import ConfigError
from repro.layout import ParallelLayout
from repro.models.configs import ModelConfig
from repro.parallel.dp import allreduce_gradients
from repro.parallel.ep import ep_moe_factory
from repro.parallel.groups import MoDaGroups, build_groups
from repro.parallel.moda import split_params
from repro.parallel.pipeline import GPipeRunner
from repro.simmpi import MAX, Comm
from repro.train.optim import Optimizer
from repro.train.schedules import ConstantLR, LRSchedule

__all__ = ["Groups3D", "build_groups3d", "Trainer3D", "Step3DResult"]


@dataclass
class Groups3D:
    """Live communicators for one rank of a 3D program."""

    #: ``world`` factored as ``pp x dp x ep`` (stages outermost).
    layout: ParallelLayout
    world: Comm
    #: This rank's pipeline (same plane position across stages).
    pipe: Comm
    #: MoDa groups within this rank's stage plane.
    plane: MoDaGroups

    @property
    def stage(self) -> int:
        return self.pipe.rank

    @property
    def pipeline_id(self) -> int:
        """This rank's position within its stage plane (= its data shard)."""
        return self.plane.world.rank


def build_groups3d(world: Comm, pipe_size: int, ep_size: int) -> Groups3D:
    """Split ``world`` into the 3D communicators (collective call)."""
    layout = ParallelLayout(world_size=world.size, ep_size=ep_size, pp_size=pipe_size)
    stage = layout.stage_of(world.rank)
    plane_rank = world.rank % layout.plane_size
    pipe = world.Split(color=plane_rank, key=stage)
    plane_comm = world.Split(color=stage, key=plane_rank)
    assert pipe is not None and plane_comm is not None
    plane = build_groups(plane_comm, ep_size)
    return Groups3D(layout=layout, world=world, pipe=pipe, plane=plane)


@dataclass
class Step3DResult:
    """Per-rank metrics from one 3D step."""

    step: int
    #: Mean loss over this rank's pipeline.
    loss: float
    #: Mean loss over the whole (global) batch.
    global_loss: float
    lr: float
    skipped: bool
    loss_scale: float
    extras: dict[str, Any] = field(default_factory=dict)


class Trainer3D:
    """One rank's view of synchronous pipe x data x expert training.

    The caller provides the optimizer over ``trainer.stage.parameters()``
    (built after construction, e.g. ``Adam(trainer.stage.parameters())``),
    then calls :meth:`train_step` with the batch of *this rank's pipeline*
    (fetch it with ``dp_rank=groups.pipeline_id,
    dp_size=groups.layout.plane_size``).
    """

    def __init__(
        self,
        config: ModelConfig,
        groups: Groups3D,
        num_microbatches: int,
        seed: int = 0,
        schedule: LRSchedule | None = None,
        scaler: DynamicLossScaler | None = None,
        alltoall_algorithm: str | None = None,
        allreduce_algorithm: str | None = None,
        compute_hook=None,
    ):
        self.groups = groups
        self.config = config
        self.scaler = scaler
        self.allreduce_algorithm = allreduce_algorithm
        self.step_count = 0
        self.history: list[Step3DResult] = []

        moe_factory = ep_moe_factory(
            config, groups.plane.ep, seed, alltoall_algorithm, compute_hook
        )
        self.gpipe = GPipeRunner(
            config, groups.pipe, num_microbatches, seed=seed, moe_factory=moe_factory
        )
        self.stage = self.gpipe.stage
        self.dense_params, self.expert_params = split_params(self.stage)
        self.schedule = schedule or ConstantLR(1e-3)
        self.optimizer: Optimizer | None = None  # set via attach_optimizer

    def attach_optimizer(self, optimizer: Optimizer) -> None:
        """Bind the optimizer (must cover ``self.stage.parameters()``)."""
        self.optimizer = optimizer

    def train_step(self, batch: Batch) -> Step3DResult:
        """One synchronous 3D step on this pipeline's batch."""
        if self.optimizer is None:
            raise ConfigError("call attach_optimizer() before train_step()")
        groups = self.groups
        lr = self.schedule(self.step_count)
        self.optimizer.lr = lr
        self.stage.zero_grad()

        # GPipe forward/backward over this pipeline. Loss scaling folds
        # into the backward seed via a scaled post-hoc gradient multiply:
        # simpler and equivalent — scale gradients after accumulation.
        t0 = groups.world.clock
        loss = self.gpipe.train_step(batch.tokens, batch.targets)
        t_pipeline = groups.world.clock - t0
        scale = self.scaler.scale if self.scaler is not None else 1.0
        if scale != 1.0:
            for p in self.stage.parameters():
                if p.grad is not None:
                    p.grad = (p.grad * scale).astype(p.grad.dtype)

        # Sync within the stage plane: dense over the whole plane, expert
        # shards across EP-group replicas.
        t1 = groups.world.clock
        allreduce_gradients(
            groups.plane.world, self.dense_params, average=True,
            algorithm=self.allreduce_algorithm,
        )
        allreduce_gradients(
            groups.plane.edp, self.expert_params, average=True,
            algorithm=self.allreduce_algorithm,
        )
        t_grad_sync = groups.world.clock - t1
        if groups.world.rank == 0:
            groups.world.context.add_phase("pipeline", t_pipeline)
            groups.world.context.add_phase("grad_sync", t_grad_sync)

        local_overflow = (
            1.0
            if self.scaler is not None and grads_have_overflow(self.optimizer.params)
            else 0.0
        )
        overflow = bool(groups.world.allreduce(local_overflow, op=MAX) > 0)

        skipped = False
        if self.scaler is not None and overflow:
            skipped = True
            self.scaler.update(found_overflow=True)
        else:
            self.optimizer.step(grad_scale=1.0 / scale)
            if self.scaler is not None:
                self.scaler.update(found_overflow=False)

        # Global loss: pipelines hold distinct batches; average over the
        # plane (every stage of a pipeline reports the same value, so
        # averaging over one plane covers every pipeline exactly once).
        global_loss = (
            float(groups.plane.world.allreduce(loss)) / groups.plane.world.size
        )

        result = Step3DResult(
            step=self.step_count,
            loss=float(loss),
            global_loss=global_loss,
            lr=lr,
            skipped=skipped,
            loss_scale=scale,
            extras={"t_pipeline": t_pipeline, "t_grad_sync": t_grad_sync},
        )
        self.step_count += 1
        self.history.append(result)
        return result
