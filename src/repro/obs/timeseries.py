"""Windowed aggregation over virtual time: rates, quantiles, sliding views.

The metric registry answers "how much, in total"; SLO enforcement needs
"how much, *lately*". This module turns the timestamped streams the
registry now records — :attr:`Histogram.stamped` ``(t, value)`` pairs and
:attr:`Counter.marks` ``(t, amount)`` increments — into windowed views:

- :func:`tumbling_windows` / :func:`tumbling_rates` — fixed-width,
  non-overlapping buckets over the virtual timeline, one
  :class:`WindowStat` per bucket (the post-hoc report view);
- :class:`SlidingWindow` — a trailing window advanced online, answering
  count / rate / mean / quantile *as of now* (what the autoscaler and
  burn-rate monitor consume mid-run);
- :class:`StreamingQuantile` — a P²-style fixed-memory quantile
  estimator for streams too long to buffer.

Everything is pure arithmetic on virtual timestamps — deterministic, no
wall clock — so windowed reports are byte-stable across same-seed runs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "percentile",
    "WindowStat",
    "tumbling_windows",
    "tumbling_rates",
    "SlidingWindow",
    "StreamingQuantile",
]


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


@dataclass(frozen=True)
class WindowStat:
    """Aggregate of one time bucket ``[start, end)`` of stamped samples."""

    start: float
    end: float
    count: int
    sum: float
    mean: float
    rate: float
    p50: float
    p95: float
    max: float

    @property
    def width(self) -> float:
        return self.end - self.start


def _window_stat(start: float, end: float, values: list[float]) -> WindowStat:
    width = end - start
    if not values:
        return WindowStat(start=start, end=end, count=0, sum=0.0, mean=0.0,
                          rate=0.0, p50=0.0, p95=0.0, max=0.0)
    total = float(np.sum(values))
    return WindowStat(
        start=start,
        end=end,
        count=len(values),
        sum=total,
        mean=total / len(values),
        rate=len(values) / width if width > 0 else 0.0,
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        max=float(max(values)),
    )


def tumbling_windows(
    stamped: list[tuple[float, float]],
    width: float,
    t0: float = 0.0,
    t_end: float | None = None,
) -> list[WindowStat]:
    """Bucket stamped ``(t, value)`` samples into fixed ``width`` windows.

    Windows tile ``[t0, t_end)`` contiguously (empty buckets included, so
    gaps are visible); ``t_end`` defaults to just past the last sample.
    Samples before ``t0`` are dropped.
    """
    if width <= 0:
        raise ConfigError(f"window width must be > 0 seconds, got {width}")
    kept = [(t, v) for t, v in stamped if t >= t0]
    if t_end is None:
        t_end = (max(t for t, _ in kept) + width) if kept else t0 + width
    if t_end <= t0:
        raise ConfigError(f"t_end {t_end} must be > t0 {t0}")
    n_windows = int(np.ceil((t_end - t0) / width))
    buckets: list[list[float]] = [[] for _ in range(n_windows)]
    for t, v in kept:
        idx = int((t - t0) / width)
        if 0 <= idx < n_windows:
            buckets[idx].append(v)
    return [
        _window_stat(t0 + i * width, t0 + (i + 1) * width, buckets[i])
        for i in range(n_windows)
    ]


def tumbling_rates(
    marks: list[tuple[float, float]],
    width: float,
    t0: float = 0.0,
    t_end: float | None = None,
) -> list[tuple[float, float, float]]:
    """Per-window increment rate from counter ``(t, amount)`` marks.

    Returns ``(start, end, amount_per_second)`` triples tiling
    ``[t0, t_end)`` — e.g. tokens/s or requests/s per bucket.
    """
    windows = tumbling_windows(marks, width, t0=t0, t_end=t_end)
    return [
        (w.start, w.end, w.sum / w.width if w.width > 0 else 0.0)
        for w in windows
    ]


class SlidingWindow:
    """A trailing window over a stamped stream, advanced online.

    ``observe(t, value)`` inserts in timestamp order (a fleet settles
    outcomes across replicas slightly out of order, so late inserts are
    tolerated — a sample older than an already-expired boundary is
    dropped); queries take ``now`` and see only samples with
    ``t > now - width``. Used by the burn-rate monitor and the
    autoscaler, which both ask "what is the p95 / rate over the last W
    virtual seconds?" many times as the run advances.
    """

    def __init__(self, width: float):
        if width <= 0:
            raise ConfigError(f"window width must be > 0 seconds, got {width}")
        self.width = width
        self._times: list[float] = []
        self._values: list[float] = []
        self._head = 0  # index of the oldest still-inside sample

    def observe(self, t: float, value: float = 1.0) -> None:
        t = float(t)
        if not self._times or t >= self._times[-1]:
            self._times.append(t)
            self._values.append(float(value))
            return
        idx = bisect.bisect_right(self._times, t)
        self._times.insert(idx, t)
        self._values.insert(idx, float(value))
        if idx < self._head:
            # Landed before the already-expired boundary: keep it expired.
            self._head += 1

    def _trim(self, now: float) -> None:
        cutoff = now - self.width
        while self._head < len(self._times) and self._times[self._head] <= cutoff:
            self._head += 1

    def window(self, now: float) -> list[float]:
        """Values inside ``(now - width, now]``, oldest first."""
        self._trim(now)
        return [
            v for t, v in zip(
                self._times[self._head:], self._values[self._head:]
            )
            if t <= now
        ]

    def count(self, now: float) -> int:
        return len(self.window(now))

    def rate(self, now: float) -> float:
        """Samples per virtual second over the trailing window."""
        return self.count(now) / self.width

    def sum(self, now: float) -> float:
        values = self.window(now)
        return float(np.sum(values)) if values else 0.0

    def mean(self, now: float) -> float:
        values = self.window(now)
        return float(np.mean(values)) if values else 0.0

    def quantile(self, q: float, now: float) -> float:
        """Percentile ``q`` (0-100) of the trailing window (0.0 if empty)."""
        return percentile(self.window(now), q)

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlidingWindow(width={self.width}, samples={len(self)})"


class StreamingQuantile:
    """Fixed-memory quantile estimate via the P² algorithm (Jain/Chlamtac).

    Five markers track the target quantile without buffering the stream;
    with fewer than five observations the estimate is exact. Updates are
    pure float arithmetic in observation order, hence deterministic.
    """

    def __init__(self, q: float):
        if not 0 < q < 1:
            raise ConfigError(f"streaming quantile q must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        h, pos = self._heights, self._positions
        if value < h[0]:
            h[0] = value
            k = 0
        elif value >= h[4]:
            h[4] = value
            k = 3
        else:
            k = next(i for i in range(4) if h[i] <= value < h[i + 1])
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1 and pos[i + 1] - pos[i] > 1) or (
                d <= -1 and pos[i - 1] - pos[i] < -1
            ):
                step = 1.0 if d >= 1 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:  # parabolic estimate escaped: fall back to linear
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + d / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (0.0 before any observation)."""
        if not self._heights:
            return 0.0
        if len(self._heights) < 5 or self.count < 5:
            exact = sorted(self._heights[: self.count])
            return float(np.percentile(exact, self.q * 100))
        return self._heights[2]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingQuantile(q={self.q}, count={self.count}, "
            f"value={self.value:.4g})"
        )
