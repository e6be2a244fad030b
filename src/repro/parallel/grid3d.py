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

from dataclasses import dataclass

from repro.amp import DynamicLossScaler
from repro.data.loader import Batch
from repro.layout import ParallelLayout
from repro.models.configs import ModelConfig
from repro.parallel.ep import ep_moe_factory
from repro.parallel.groups import MoDaGroups, build_groups
from repro.parallel.moda import split_params
from repro.parallel.pipeline import GPipeRunner
from repro.parallel.step import DistributedStep
from repro.simmpi import Comm
from repro.train.schedules import LRSchedule
from repro.train.trainer import StepResult

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


#: The per-rank metrics of one 3D step (the shared result type); ``loss``
#: is the mean over this rank's pipeline.
Step3DResult = StepResult


class Trainer3D(DistributedStep):
    """One rank's view of synchronous pipe x data x expert training.

    The shared :class:`~repro.parallel.step.DistributedStep` with the GPipe
    gradient producer, gradients averaged inside the stage plane (dense
    over the whole plane, expert shards across its EP-group replicas) and
    the skip decision agreed over the whole world.

    The caller provides the optimizer over ``trainer.stage.parameters()``
    (built after construction, e.g. ``Adam(trainer.stage.parameters())``)
    through :meth:`attach_optimizer`, then calls :meth:`train_step` with
    the batch of *this rank's pipeline* (fetch it with
    ``dp_rank=groups.pipeline_id, dp_size=groups.layout.plane_size``).
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
        moe_factory = ep_moe_factory(
            config, groups.plane.ep, seed, alltoall_algorithm, compute_hook
        )
        self.gpipe = GPipeRunner(
            config, groups.pipe, num_microbatches, seed=seed, moe_factory=moe_factory
        )
        self.stage = self.gpipe.stage
        self.dense_params, self.expert_params = split_params(self.stage)
        # Pipelines hold distinct batches and every stage of a pipeline
        # reports the same loss, so averaging over one plane covers every
        # pipeline exactly once.
        sync_groups = [
            ("dense", self.dense_params, groups.plane.world),
            ("expert", self.expert_params, groups.plane.edp),
        ]
        super().__init__(
            self.stage, groups.world, groups.plane.world, self._pipeline_gradients,
            sync_groups, schedule=schedule, scaler=scaler,
            allreduce_algorithm=allreduce_algorithm,
        )

    def _pipeline_gradients(self, batch: Batch, scale: float):
        """The GPipe producer: forward and backward waves over this pipeline.

        Loss scaling is a post-hoc multiply of the accumulated gradients —
        simpler than seeding every microbatch's backward, and equivalent.
        """
        t0 = self.world.clock
        loss = self.gpipe.train_step(batch.tokens, batch.targets)
        t_pipeline = self.world.clock - t0
        if scale != 1.0:
            for p in self.stage.parameters():
                if p.grad is not None:
                    p.grad = (p.grad * scale).astype(p.grad.dtype)
        return loss, {"pipeline": t_pipeline}
