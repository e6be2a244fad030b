"""The synchronous distributed training step, written once.

Every strategy in this repo takes the same step on every rank::

    lr <- schedule                      zero_grad
    produce gradients                   (batch, scale) -> loss, {phase: virtual s}
    average each (label, params, comm)  one bucket, or several behind backward
    agree on overflow + global loss     ONE world allreduce of [flag, loss slots]
    apply_update                        skip, or optimizer step

What differs between strategies is *data* handed to :class:`DistributedStep`:
the sync groups, the communicator the loss is averaged over, and the
**gradient producer** — :func:`local_gradients` (one forward + one scaled
backward) for every in-plane strategy, the GPipe wave of
:class:`~repro.parallel.grid3d.Trainer3D` for the pipeline ones.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.amp import DynamicLossScaler, grads_have_overflow
from repro.data.loader import Batch
from repro.errors import ConfigError
from repro.models.module import Module, Parameter
from repro.parallel.dp import PendingGradAllreduce
from repro.simmpi import Comm
from repro.train.optim import Adam
from repro.train.schedules import ConstantLR, LRSchedule
from repro.train.trainer import StepResult, apply_update

__all__ = ["DistributedStep", "GradientProducer", "SyncGroup", "local_gradients"]

#: ``(batch, loss scale) -> (this rank's loss, virtual seconds per phase)``,
#: leaving *scaled* gradients in the parameters' ``.grad``.
GradientProducer = Callable[[Batch, float], tuple[float, dict[str, float]]]

#: ``(label, params, comm)``: these gradients are averaged over that group.
SyncGroup = tuple[str, Sequence[Parameter], Comm]


def local_gradients(model: Module, comm: Comm) -> GradientProducer:
    """The local producer: one forward, one backward seeded with the scale."""

    def produce(batch: Batch, scale: float) -> tuple[float, dict[str, float]]:
        t0 = comm.clock
        loss = model.loss(batch.tokens, batch.targets)
        loss_value = float(loss.item())
        t1 = comm.clock
        loss.backward(np.asarray(scale, dtype=loss.data.dtype))
        return loss_value, {"forward": t1 - t0, "backward": comm.clock - t1}

    return produce


class DistributedStep:
    """One rank's view of a synchronous distributed step (module docstring).

    ``world`` agrees on the skip decision and its rank 0 records the phase
    breakdown; ``loss_comm`` is the group whose ranks hold the distinct
    data shards of one global batch. The optimizer may be attached after
    construction (:meth:`attach_optimizer`); a schedule-less trainer steps
    with the attached optimizer's own ``lr``.
    """

    #: Buckets each sync group's flat gradient is allreduced in. With more
    #: than one the buckets are nonblocking, and ``backward_compute_hook``
    #: (which the strategy layer uses to advance the modelled backward
    #: compute on the virtual clock) runs while they are in flight — hiding
    #: sync behind backward. Gradient values do not depend on the count.
    grad_sync_buckets: int = 1
    backward_compute_hook: Callable[[], None] | None = None

    def __init__(
        self, module: Module, world: Comm, loss_comm: Comm, produce: GradientProducer,
        sync_groups: list[SyncGroup], optimizer: Adam | None = None,
        schedule: LRSchedule | None = None, scaler: DynamicLossScaler | None = None,
        allreduce_algorithm: str | None = None,
    ):
        self.module = module
        self.world = world
        self.loss_comm = loss_comm
        self.produce = produce
        #: How gradients are averaged, one :data:`SyncGroup` per axis.
        self.sync_groups = sync_groups
        self.optimizer: Adam | None = None
        self.schedule = schedule
        self.scaler = scaler
        self.allreduce_algorithm = allreduce_algorithm
        self.step_count = 0
        if optimizer is not None:
            self.attach_optimizer(optimizer)

    def attach_optimizer(self, optimizer: Adam) -> None:
        """Bind the optimizer (must cover every sync group's parameters)."""
        self.optimizer = optimizer
        if self.schedule is None:
            self.schedule = ConstantLR(optimizer.lr)

    def sync_gradients(self) -> dict[str, int]:
        """Average each sync group's gradients; bytes moved per label.

        Every group's buckets are issued, the modelled backward compute (if
        any) runs, and then each group is waited on. One bucket is the
        blocking allreduce, complete as issued, so the groups still sync
        one after another; each bucket is a contiguous slice of the flat
        gradient (float16 on the wire when the group is all fp16), so the
        sums are bit-identical for every count.
        """
        pending = [
            (label, PendingGradAllreduce(
                comm, params, self.allreduce_algorithm,
                self.grad_sync_buckets, nonblocking=self.grad_sync_buckets > 1,
            ))
            for label, params, comm in self.sync_groups
        ]
        if self.backward_compute_hook is not None:
            self.backward_compute_hook()
        return {label: handle.wait() for label, handle in pending}

    def next_lr(self) -> float:
        """Set this step's learning rate on the optimizer and return it."""
        if self.optimizer is None:
            raise ConfigError("call attach_optimizer() before train_step()")
        lr = self.schedule(self.step_count)
        self.optimizer.lr = lr
        return lr

    def finish_step(self, phases: dict[str, float], extras: dict, **fields) -> StepResult:
        """Record the phase breakdown and close the step with its result.

        Only rank 0 of the world reports into the run's instrumentation
        spine, so totals aren't multiplied by the world size.
        """
        if self.world.rank == 0:
            for name, seconds in phases.items():
                self.world.context.add_phase(name, seconds)
        timed = {f"t_{name}": seconds for name, seconds in phases.items()}
        result = StepResult(step=self.step_count, extras=timed | extras, **fields)
        self.step_count += 1
        return result

    def _agree(self, found: bool, loss_value: float) -> tuple[bool, float]:
        """``(any rank overflowed, mean loss over loss_comm)`` from ONE world
        allreduce of ``[flag, one loss slot per loss group]``.

        All ranks must agree on the skip decision (their shards differ), so
        a flag sum above 0 is the MAX vote. ``loss_comm`` is a block of
        consecutive world ranks (the world, or one stage plane), so this
        rank's loss slot is ``1 + world.rank // loss_comm.size``; the other
        groups add +0.0 to it, which leaves its left fold bit-equal to the
        sum over ``loss_comm`` alone.
        """
        world, size = self.world, self.loss_comm.size
        slot = 1 + world.rank // size
        vote = np.zeros(1 + world.size // size)
        vote[0] = 1.0 if found else 0.0
        vote[slot] = loss_value
        total = world.allreduce(vote)
        return bool(total[0] > 0), float(total[slot]) / size

    def train_step(self, batch: Batch) -> StepResult:
        """Run one synchronous distributed step on this rank's batch."""
        world = self.world
        lr = self.next_lr()
        self.module.zero_grad()
        scale = self.scaler.scale if self.scaler is not None else 1.0
        loss_value, phases = self.produce(batch, scale)

        t0 = world.clock
        sync_bytes = self.sync_gradients()
        phases["grad_sync"] = world.clock - t0

        found = self.scaler is not None and grads_have_overflow(self.optimizer.params)
        overflow, global_loss = self._agree(found, loss_value)
        skipped = apply_update(self.optimizer, self.scaler, scale, overflow)
        return self.finish_step(
            phases,
            {
                f"{label}_sync_bytes": float(nbytes)
                for label, nbytes in sync_bytes.items()
                if label not in ("dense", "expert")
            },
            loss=loss_value,
            global_loss=global_loss,
            lr=lr,
            grad_norm=None,
            skipped=skipped,
            loss_scale=scale,
            dense_sync_bytes=sync_bytes.get("dense", 0),
            expert_sync_bytes=sync_bytes.get("expert", 0),
        )
