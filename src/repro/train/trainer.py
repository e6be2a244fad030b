"""Single-process training loop (the reference the parallel paths match).

Handles the full mixed-precision protocol: scaled loss, overflow detection,
skipped steps, gradient clipping, and LR scheduling. The distributed step
(:mod:`repro.parallel.step`) shares the update block (:func:`apply_update`),
the eval loop (:func:`eval_loss`) and the result type with this loop, and
inserts communication at the gradient stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.amp import DynamicLossScaler, grads_have_overflow
from repro.data.loader import Batch, ShardedLoader
from repro.errors import ConfigError
from repro.models.module import Module
from repro.tensor import no_grad
from repro.train.clip import clip_grad_norm, global_grad_norm
from repro.train.optim import Optimizer
from repro.train.schedules import ConstantLR, LRSchedule

__all__ = ["StepResult", "Trainer", "apply_update", "eval_loss", "eval_report"]


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
    #: Unscaled pre-clip gradient norm; ``inf`` on a skipped step.
    grad_norm: float
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
    optimizer: Optimizer,
    scaler: DynamicLossScaler | None,
    grad_clip: float | None,
    scale: float,
    overflow: bool,
) -> tuple[float, bool]:
    """Skip or step, the one way every trainer does it: ``(grad_norm, skipped)``.

    ``overflow`` is the (already world-agreed) verdict on the scaled
    gradients. On overflow under a scaler nothing is applied and the
    scaler backs off; otherwise gradients are measured (and clipped) in
    unscaled units, the optimizer steps with the inverse scale, and the
    scaler counts a good step.
    """
    if scaler is not None and overflow:
        scaler.update(found_overflow=True)
        return float("inf"), True
    inv = 1.0 / scale
    if grad_clip is not None:
        grad_norm = clip_grad_norm(optimizer.params, grad_clip, grad_scale=inv)
    else:
        grad_norm = global_grad_norm(optimizer.params, grad_scale=inv)
    optimizer.step(grad_scale=inv)
    if scaler is not None:
        scaler.update(found_overflow=False)
    return grad_norm, False


def eval_loss(model: Module, loader: ShardedLoader, num_steps: int, start_step: int = 0) -> float:
    """Mean held-out loss of ``model`` over ``num_steps`` loader batches, in
    eval mode and without touching gradients."""
    if num_steps < 1:
        raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
    was_training = model.training
    model.eval()
    total = 0.0
    try:
        with no_grad():
            for batch in loader.iter_batches(num_steps, start_step=start_step):
                total += float(model.loss(batch.tokens, batch.targets).item())
    finally:
        if was_training:
            model.train()
    return total / num_steps


def eval_report(mean_loss: float) -> dict[str, float]:
    """The ``evaluate`` result for a mean loss: loss and (capped) perplexity."""
    return {"loss": mean_loss, "perplexity": float(np.exp(min(mean_loss, 50.0)))}


class Trainer:
    """Glue between model, optimizer, schedule, loss scaler, and data.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.Module` exposing
        ``loss(tokens, targets) -> Tensor``.
    optimizer:
        An :class:`~repro.train.optim.Optimizer` over the model parameters.
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
        optimizer: Optimizer,
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
        return self.train_step_accumulated([batch])

    def train_step_accumulated(self, batches: list[Batch]) -> StepResult:
        """One optimizer step over several microbatches (gradient
        accumulation): each backward is scaled by 1/len(batches), so the
        update equals a single step on the concatenated batch."""
        if not batches:
            raise ConfigError("train_step_accumulated needs >= 1 batch")
        lr = self.schedule(self.step_count)
        self.optimizer.lr = lr
        self.model.zero_grad()

        scale = self.scaler.scale if self.scaler is not None else 1.0
        inv_n = 1.0 / len(batches)
        loss_value = 0.0
        for batch in batches:
            loss = self.model.loss(batch.tokens, batch.targets)
            loss_value += float(loss.item()) * inv_n
            loss.backward(np.asarray(scale * inv_n, dtype=loss.data.dtype))

        overflow = self.scaler is not None and grads_have_overflow(self.optimizer.params)
        grad_norm, skipped = apply_update(
            self.optimizer, self.scaler, self.grad_clip, scale, overflow
        )
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

    def evaluate(self, loader: ShardedLoader, num_steps: int, start_step: int = 0) -> dict[str, float]:
        """Held-out evaluation: mean loss and perplexity over ``num_steps``
        batches, without touching gradients or the step counter."""
        return eval_report(eval_loss(self.model, loader, num_steps, start_step))

    def fit(
        self,
        loader: ShardedLoader,
        num_steps: int,
        log_every: int = 0,
        on_step: Callable[[StepResult], None] | None = None,
        accumulate_steps: int = 1,
    ) -> list[StepResult]:
        """Train for ``num_steps`` optimizer steps from ``loader``.

        With ``accumulate_steps > 1``, each optimizer step consumes that
        many consecutive loader batches (gradient accumulation).
        """
        if num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
        if accumulate_steps < 1:
            raise ConfigError(f"accumulate_steps must be >= 1, got {accumulate_steps}")
        results = []
        for _ in range(num_steps):
            base = self.step_count * accumulate_steps
            batches = [loader.get_batch(base + i) for i in range(accumulate_steps)]
            result = self.train_step_accumulated(batches)
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
