"""Capped exponential backoff, shared by training and serving recovery.

Both recovery drivers in this codebase wait between retries the same way:
the :class:`~repro.resilience.supervisor.Supervisor` before relaunching a
crashed training world, and the serving
:class:`~repro.serve.router.ReplicaRouter` before re-enlisting a crashed
replica or re-dispatching a failed request. The schedule used to live
inline in the supervisor; it is one policy object now, so the two drivers
cannot drift (a test asserts their schedules are identical).

The policy is *stateless*: ``delay(n)`` is a pure function of the attempt
count, and the optional jitter is derived from ``(seed, n)`` — the same
call always returns the same virtual-seconds wait, which keeps every
recovery timeline bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.utils.seeding import derive_seed

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """``min(cap, base * factor**(n-1))`` virtual seconds before retry n.

    Parameters
    ----------
    base / factor / cap:
        First-retry wait, growth factor (>= 1), and ceiling, all in
        virtual seconds.
    jitter:
        Optional fraction in [0, 1): the delay is scaled by a factor drawn
        uniformly from ``[1 - jitter, 1 + jitter]``, seeded by
        ``(seed, n)`` so the draw is deterministic per attempt index.
        0 (the default) reproduces the historical supervisor schedule
        exactly.
    """

    base: float = 5.0
    factor: float = 2.0
    cap: float = 60.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # ``not x >= low`` refuses NaN, which ``x < low`` lets through. The
        # configs that own a policy call these fields ``backoff_<name>``.
        for name, low in (("base", 0.0), ("factor", 1.0), ("cap", 0.0)):
            value = getattr(self, name)
            if not value >= low:
                raise ConfigError(f"backoff_{name} must be >= {low}, got {value}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, consecutive: int) -> float:
        """Wait before the ``consecutive``-th consecutive retry (1-based)."""
        if consecutive < 1:
            raise ConfigError(
                f"consecutive failure count must be >= 1, got {consecutive}"
            )
        wait = min(self.cap, self.base * self.factor ** (consecutive - 1))
        if self.jitter > 0.0:
            rng = np.random.default_rng(
                derive_seed(self.seed, "backoff", consecutive)
            )
            wait *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return wait

    def schedule(self, retries: int) -> list[float]:
        """The first ``retries`` delays, in order (handy for tests/docs)."""
        if retries < 0:
            raise ConfigError(f"retries must be >= 0, got {retries}")
        return [self.delay(n) for n in range(1, retries + 1)]
