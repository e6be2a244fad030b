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

__all__ = ["DynamicLossScaler", "grads_have_overflow"]


def grads_have_overflow(params: Iterable[Tensor]) -> bool:
    """True if any parameter gradient contains inf or NaN."""
    for p in params:
        if p.grad is None:
            continue
        if not np.isfinite(p.grad).all():
            return True
    return False


class DynamicLossScaler:
    """The standard dynamic loss-scale controller.

    Parameters
    ----------
    init_scale:
        Starting scale (power of two recommended).
    growth_factor / backoff_factor:
        Multipliers applied on growth / overflow.
    growth_interval:
        Number of consecutive overflow-free steps before growing.
    min_scale / max_scale:
        Clamp bounds for the scale.
    """

    def __init__(
        self,
        init_scale: float = 2.0**16,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 200,
        min_scale: float = 1.0,
        max_scale: float = 2.0**24,
    ):
        if init_scale <= 0:
            raise ConfigError(f"init_scale must be > 0, got {init_scale}")
        if growth_factor <= 1.0:
            raise ConfigError(f"growth_factor must be > 1, got {growth_factor}")
        if not 0.0 < backoff_factor < 1.0:
            raise ConfigError(f"backoff_factor must be in (0,1), got {backoff_factor}")
        if growth_interval < 1:
            raise ConfigError(f"growth_interval must be >= 1, got {growth_interval}")
        if not 0 < min_scale <= init_scale <= max_scale:
            raise ConfigError("require 0 < min_scale <= init_scale <= max_scale")
        self.scale = float(init_scale)
        self.growth_factor = growth_factor
        self.backoff_factor = backoff_factor
        self.growth_interval = growth_interval
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        self._good_steps = 0
        #: Total overflow events observed (for logging).
        self.overflow_count = 0

    def update(self, found_overflow: bool) -> None:
        """Advance the state machine after one step attempt."""
        if found_overflow:
            self.overflow_count += 1
            self._good_steps = 0
            self.scale = max(self.min_scale, self.scale * self.backoff_factor)
        else:
            self._good_steps += 1
            if self._good_steps >= self.growth_interval:
                self._good_steps = 0
                self.scale = min(self.max_scale, self.scale * self.growth_factor)
