"""Trailing-window views over virtual time, and the one percentile.

The metric registry answers "how much, in total"; SLO enforcement and
the autoscaler need "how much, *lately*". :class:`SlidingWindow` keeps
a stamped ``(t, value)`` series sorted by ``t`` and answers count /
rate / mean / quantile over ``(now - width, now]`` for any ``now``;
:func:`percentile` is the percentile every summary in the repo reports.

Everything is pure arithmetic on virtual timestamps — deterministic, no
wall clock — so windowed reports are byte-stable across same-seed runs.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = ["percentile", "SlidingWindow"]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values``, ``q`` in [0, 100].

    The one percentile every latency/metric summary in the repo reports.
    An empty sample reports 0.0 — "nothing observed" — so report
    generators and dashboards never trip over a run with zero completions.
    """
    if not 0 <= q <= 100:
        raise ConfigError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    return float(np.percentile(values, q))


class SlidingWindow:
    """A trailing window over a stamped stream.

    ``observe(t, value)`` inserts in timestamp order (a fleet settles
    outcomes across replicas slightly out of order, so late inserts are
    tolerated; equal timestamps keep their observation order). A query
    at ``now`` sees exactly the samples with ``now - width < t <= now``:
    two bisections of the sorted timestamps, so the answer depends only
    on the samples and ``now``, never on earlier queries. Used by the
    burn-rate monitor and the autoscaler, which both ask "what is the
    p95 / rate over the last W virtual seconds?" as the run advances.
    """

    def __init__(self, width: float):
        if width <= 0:
            raise ConfigError(f"window width must be > 0 seconds, got {width}")
        self.width = width
        self._times: list[float] = []
        self._values: list[float] = []

    def observe(self, t: float, value: float = 1.0) -> None:
        t = float(t)
        idx = bisect.bisect_right(self._times, t)
        self._times.insert(idx, t)
        self._values.insert(idx, float(value))

    def window(self, now: float) -> list[float]:
        """Values inside ``(now - width, now]``, oldest first."""
        lo = bisect.bisect_right(self._times, now - self.width)
        hi = bisect.bisect_right(self._times, now)
        return self._values[lo:hi]

    def count(self, now: float) -> int:
        return len(self.window(now))

    def sum(self, now: float) -> float:
        values = self.window(now)
        return float(np.sum(values)) if values else 0.0

    def quantile(self, q: float, now: float) -> float:
        """Percentile ``q`` (0-100) of the trailing window (0.0 if empty)."""
        return percentile(self.window(now), q)

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlidingWindow(width={self.width}, samples={len(self)})"
