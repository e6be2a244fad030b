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

from repro.data.loader import Batch
from repro.errors import ConfigError
from repro.models.configs import ModelConfig
from repro.parallel.ep import ep_moe_factory
from repro.parallel.groups import MoDaGroups
from repro.parallel.moda import sync_plan
from repro.parallel.pipeline import GPipeRunner
from repro.parallel.step import DistributedStep
from repro.train.schedules import LRSchedule

__all__ = ["Trainer3D"]


class Trainer3D(DistributedStep):
    """One rank's view of synchronous pipe x data x expert training.

    The shared :class:`~repro.parallel.step.DistributedStep` with the GPipe
    gradient producer, gradients averaged inside the stage plane by
    :func:`~repro.parallel.moda.sync_plan` and the skip decision agreed
    over the whole world. The groups must come from a layout with
    ``pp_size >= 2`` (at pp 1 there is no pipeline; use
    :class:`~repro.parallel.moda.MoDaTrainer`).

    The caller provides the optimizer over ``trainer.stage.parameters()``
    (built after construction, e.g. ``Adam(trainer.stage.parameters())``)
    through :meth:`attach_optimizer`, and a loss scaler, if any, by
    assigning ``trainer.scaler`` (an fp16 run casts the built stage first),
    then calls :meth:`train_step` with
    the batch of *this rank's pipeline* (fetch it with
    ``dp_rank=groups.pipeline_id, dp_size=groups.layout.plane_size``);
    ``loss`` in each step's result is the mean over this rank's pipeline.
    """

    def __init__(
        self,
        config: ModelConfig,
        groups: MoDaGroups,
        num_microbatches: int,
        seed: int = 0,
        schedule: LRSchedule | None = None,
        alltoall_algorithm: str | None = None,
        allreduce_algorithm: str | None = None,
        compute_hook=None,
    ):
        if groups.layout.pp_size == 1:
            raise ConfigError(
                f"Trainer3D needs pp_size >= 2, got {groups.layout.describe()}"
            )
        self.groups = groups
        self.config = config
        moe_factory = ep_moe_factory(
            config, groups.ep, seed, alltoall_algorithm, compute_hook
        )
        self.gpipe = GPipeRunner(
            config, groups.pipe, num_microbatches, seed=seed, moe_factory=moe_factory
        )
        self.stage = self.gpipe.stage
        # Pipelines hold distinct batches and every stage of a pipeline
        # reports the same loss, so averaging over one plane covers every
        # pipeline exactly once.
        super().__init__(
            self.stage, groups.world, groups.plane, self._pipeline_gradients,
            sync_plan(self.stage, groups), schedule=schedule,
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
