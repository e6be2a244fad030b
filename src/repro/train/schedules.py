"""Learning-rate schedules (warmup + decay families)."""

from __future__ import annotations

import math

from repro.errors import ConfigError

__all__ = ["LRSchedule", "ConstantLR", "WarmupCosineLR"]


class LRSchedule:
    """Maps a 0-based step index to a learning rate."""

    def lr_at(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        if step < 0:
            raise ConfigError(f"step must be >= 0, got {step}")
        return self.lr_at(step)


class ConstantLR(LRSchedule):
    """Fixed learning rate."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ConfigError(f"lr must be > 0, got {lr}")
        self.lr = float(lr)

    def lr_at(self, step: int) -> float:
        return self.lr


class WarmupCosineLR(LRSchedule):
    """Linear warmup then cosine decay to zero (GPT-style default)."""

    def __init__(self, peak_lr: float, warmup_steps: int, total_steps: int):
        if peak_lr <= 0:
            raise ConfigError(f"peak_lr must be > 0, got {peak_lr}")
        if warmup_steps < 0 or total_steps <= 0 or warmup_steps > total_steps:
            raise ConfigError(
                f"need 0 <= warmup_steps <= total_steps, got {warmup_steps}/{total_steps}"
            )
        self.peak_lr = float(peak_lr)
        self.warmup_steps = int(warmup_steps)
        self.total_steps = int(total_steps)

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.peak_lr * (step + 1) / max(self.warmup_steps, 1)
        span = max(self.total_steps - self.warmup_steps, 1)
        progress = min((step - self.warmup_steps) / span, 1.0)
        cos = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.peak_lr * cos
