"""Single-process training loop (the reference the parallel paths match).

Handles the full mixed-precision protocol: scaled loss, overflow detection,
skipped steps, gradient clipping, and LR scheduling. The distributed step
(:mod:`repro.parallel.step`) shares the update block (:func:`apply_update`)
and the result type with this loop, and inserts communication at the
gradient stage. Only this loop measures the gradient norm: it logs it and
clips by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.amp import DynamicLossScaler, grads_have_overflow
from repro.data.loader import Batch, ShardedLoader
from repro.errors import ConfigError
from repro.models.module import Module
from repro.train.clip import clip_grad_norm, global_grad_norm
from repro.train.optim import Adam
from repro.train.schedules import ConstantLR, LRSchedule

__all__ = ["StepResult", "Trainer", "apply_update"]


@dataclass
class StepResult:
    """Metrics from one optimizer step attempt — on one process or one rank
    of any distributed strategy (the fields past ``loss_scale`` keep their
    defaults where they do not apply)."""

    step: int
    #: This process's (rank's, pipeline's) loss.
    loss: float
    #: Mean loss over the whole global batch — identical on every rank.
    global_loss: float
    lr: float
    #: Unscaled pre-clip gradient norm; ``inf`` on a skipped step. None on
    #: a distributed step, which does not measure it.
    grad_norm: float | None
    skipped: bool
    loss_scale: float
    #: Virtual seconds per phase as ``t_<phase>``, plus per-strategy extras.
    extras: dict[str, Any] = field(default_factory=dict)
    #: Expert-load imbalance (max/mean) observed this step; 1.0 if n/a.
    imbalance: float = 1.0
    #: fp32 bytes this rank moved averaging replicated / expert gradients.
    dense_sync_bytes: int = 0
    expert_sync_bytes: int = 0


def apply_update(
    optimizer: Adam,
    scaler: DynamicLossScaler | None,
    scale: float,
    overflow: bool,
) -> bool:
    """Skip or step, the one way every trainer does it; True when skipped.

    ``overflow`` is the (already world-agreed) verdict on the scaled
    gradients. On overflow under a scaler nothing is applied and the
    scaler backs off; otherwise the optimizer steps with the inverse
    scale and the scaler counts a good step.
    """
    if scaler is not None and overflow:
        scaler.update(found_overflow=True)
        return True
    optimizer.step(grad_scale=1.0 / scale)
    if scaler is not None:
        scaler.update(found_overflow=False)
    return False


class Trainer:
    """Glue between model, optimizer, schedule, loss scaler, and data.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.Module` exposing
        ``loss(tokens, targets) -> Tensor``.
    optimizer:
        An :class:`~repro.train.optim.Adam` over the model parameters.
    schedule:
        LR schedule (constant when omitted; the optimizer's ``lr`` is
        overwritten every step).
    scaler:
        Dynamic loss scaler; enables the fp16 protocol when given.
    grad_clip:
        Optional global-norm clip value.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Adam,
        schedule: LRSchedule | None = None,
        scaler: DynamicLossScaler | None = None,
        grad_clip: float | None = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.schedule = schedule or ConstantLR(optimizer.lr)
        self.scaler = scaler
        self.grad_clip = grad_clip
        if grad_clip is not None and grad_clip <= 0:
            raise ConfigError(f"grad_clip must be > 0, got {grad_clip}")
        self.step_count = 0
        self.history: list[StepResult] = []

    def train_step(self, batch: Batch) -> StepResult:
        """Run forward/backward/update on one batch; returns metrics."""
        lr = self.schedule(self.step_count)
        self.optimizer.lr = lr
        self.model.zero_grad()

        scale = self.scaler.scale if self.scaler is not None else 1.0
        loss = self.model.loss(batch.tokens, batch.targets)
        loss_value = float(loss.item())
        loss.backward(np.asarray(scale, dtype=loss.data.dtype))

        params = self.optimizer.params
        overflow = self.scaler is not None and grads_have_overflow(params)
        # Measured (and clipped) in unscaled units, before the update.
        if overflow:
            grad_norm = math.inf
        elif self.grad_clip is not None:
            grad_norm = clip_grad_norm(params, self.grad_clip, grad_scale=1.0 / scale)
        else:
            grad_norm = global_grad_norm(params, grad_scale=1.0 / scale)
        skipped = apply_update(self.optimizer, self.scaler, scale, overflow)
        result = StepResult(
            step=self.step_count,
            loss=loss_value,
            global_loss=loss_value,
            lr=lr,
            grad_norm=grad_norm,
            skipped=skipped,
            loss_scale=scale,
        )
        self.step_count += 1
        self.history.append(result)
        return result

    def fit(
        self,
        loader: ShardedLoader,
        num_steps: int,
        log_every: int = 0,
        on_step: Callable[[StepResult], None] | None = None,
    ) -> list[StepResult]:
        """Train for ``num_steps`` optimizer steps, one loader batch each."""
        if num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
        results = []
        for _ in range(num_steps):
            result = self.train_step(loader.get_batch(self.step_count))
            results.append(result)
            if on_step is not None:
                on_step(result)
            if log_every and result.step % log_every == 0:
                print(
                    f"step {result.step:5d}  loss {result.loss:.4f}  "
                    f"lr {result.lr:.2e}  |g| {result.grad_norm:.3f}"
                    + ("  [skipped]" if result.skipped else "")
                )
        return results
