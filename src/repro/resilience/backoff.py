"""Capped exponential backoff, shared by training and serving recovery.

Both recovery drivers in this codebase wait between retries the same way:
the :class:`~repro.resilience.supervisor.Supervisor` before relaunching a
crashed training world, and the serving
:class:`~repro.serve.router.ReplicaRouter` before re-enlisting a crashed
replica or re-dispatching a failed request. The schedule used to live
inline in the supervisor; it is one policy object now, so the two drivers
cannot drift (a test asserts their schedules are identical).

The policy is *stateless*: ``delay(n)`` is a pure function of the attempt
count — the same call always returns the same virtual-seconds wait, which
keeps every recovery timeline bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """``min(cap, base * 2**(n-1))`` virtual seconds before retry n.

    ``base`` is the first-retry wait and ``cap`` the ceiling, both in
    virtual seconds; each consecutive retry doubles the wait.
    """

    base: float = 5.0
    cap: float = 60.0

    def __post_init__(self) -> None:
        # ``not x >= low`` refuses NaN, which ``x < low`` lets through. The
        # configs that own a policy call these fields ``backoff_<name>``.
        for name, low in (("base", 0.0), ("cap", 0.0)):
            value = getattr(self, name)
            if not value >= low:
                raise ConfigError(f"backoff_{name} must be >= {low}, got {value}")

    def delay(self, consecutive: int) -> float:
        """Wait before the ``consecutive``-th consecutive retry (1-based)."""
        if consecutive < 1:
            raise ConfigError(
                f"consecutive failure count must be >= 1, got {consecutive}"
            )
        return min(self.cap, self.base * 2.0 ** (consecutive - 1))
