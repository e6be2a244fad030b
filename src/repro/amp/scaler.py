"""Dynamic loss scaling for fp16 training.

fp16 gradients underflow (magnitudes below ~6e-8 flush to zero), so the
loss is multiplied by a large scale before backward and gradients divided
by it before the optimizer step. When any gradient overflows to inf/NaN the
step is skipped and the scale halved; after ``growth_interval`` consecutive
good steps the scale doubles. This is the exact state machine of
torch.cuda.amp / Megatron, reproduced here because our emulated fp16
genuinely overflows and underflows.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor
from repro.tensor.buckets import buckets

__all__ = ["DynamicLossScaler", "grads_have_overflow"]


def grads_have_overflow(params: Iterable[Tensor]) -> bool:
    """True if any parameter gradient contains inf or NaN (one ``isfinite``
    per bucket of :func:`~repro.tensor.buckets.buckets`)."""
    for run, _ in buckets(params):
        grads = [p.grad for p in run if p.grad is not None]
        if grads and not np.isfinite(np.concatenate(grads, axis=None)).all():
            return True
    return False


class DynamicLossScaler:
    """The standard dynamic loss-scale controller.

    Parameters
    ----------
    init_scale:
        Starting scale (power of two recommended).
    growth_interval:
        Number of consecutive overflow-free steps before growing.
    """

    #: Multipliers applied on growth / overflow.
    GROWTH_FACTOR = 2.0
    BACKOFF_FACTOR = 0.5
    #: Clamp bounds for the scale.
    MIN_SCALE = 1.0
    MAX_SCALE = 2.0**24

    def __init__(self, init_scale: float = 2.0**16, growth_interval: int = 200):
        if not self.MIN_SCALE <= init_scale <= self.MAX_SCALE:
            raise ConfigError(
                f"init_scale must be in [{self.MIN_SCALE}, {self.MAX_SCALE}], got {init_scale}"
            )
        if growth_interval < 1:
            raise ConfigError(f"growth_interval must be >= 1, got {growth_interval}")
        self.scale = float(init_scale)
        self.growth_interval = growth_interval
        self._good_steps = 0
        #: Total overflow events observed (for logging).
        self.overflow_count = 0

    def update(self, found_overflow: bool) -> None:
        """Advance the state machine after one step attempt."""
        if found_overflow:
            self.overflow_count += 1
            self._good_steps = 0
            self.scale = max(self.MIN_SCALE, self.scale * self.BACKOFF_FACTOR)
        else:
            self._good_steps += 1
            if self._good_steps >= self.growth_interval:
                self._good_steps = 0
                self.scale = min(self.MAX_SCALE, self.scale * self.GROWTH_FACTOR)
