"""Machine-speed calibration for host-time metrics.

The boxes this benchmark runs on are shared: the time of one fixed
single-thread loop was seen to drift between 36 and 70 ms over tens of
seconds, with bursts to 147 ms, so a raw host time says more about the
neighbours than about the program. Each process therefore times a fixed
kernel — interpreter bytecode plus small NumPy calls, the mix the program
itself runs — next to the ops it measures, and host times are divided by
``kernel time / REFERENCE_S``. On a machine at the reference speed a
calibrated time *is* the wall time.
"""

from __future__ import annotations

import resource
import time
from typing import Callable

import numpy as np

from bench.timing import median

#: Kernel time on the reference machine (the quiet state of the box the
#: first baseline was measured on).
REFERENCE_S = 0.010

_A = np.linspace(-0.1, 0.1, 64 * 128, dtype=np.float32).reshape(64, 128)
_B = np.ascontiguousarray(_A.T)


def _kernel() -> float:
    total = 0.0
    for i in range(18000):
        total += (i * i) % 7
        if i % 40 == 0:
            total += float(np.exp(_A @ _B).sum())
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slowness() -> float:
    """How many times slower than the reference machine this CPU runs now.

    The fastest of three kernel timings: interruptions only ever add time.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S


def calibrate(raw: list[float], samples: list[float], every: int = 1) -> list[float]:
    """Raw op seconds -> calibrated ones.

    ``samples[j]`` was taken just before op ``j * every`` and the last one
    after the final op; each op is divided by the mean of the two samples
    that bracket it.
    """
    return [r / (0.5 * (samples[i // every] + samples[i // every + 1]))
            for i, r in enumerate(raw)]


def keep_going(done: int, elapsed: float, window: float | None, fixed: int) -> bool:
    """Whether a closed loop starts another op.

    Without a window exactly ``fixed`` ops run. With one, an op starts only
    while at least half of it is expected to fit, so a run overshoots its
    window by at most half an op; the first op always runs.
    """
    if window is None:
        return done < fixed
    return done == 0 or elapsed + 0.5 * elapsed / done < window


def closed_loop(op: Callable[[int], object], window: float | None, fixed: int,
                tracer) -> dict:
    """Run ``op(0)``, ``op(1)``, ... back to back on the calling thread.

    The set-up ends where this starts. Slowness is sampled before the first
    op and after every op. Peak RSS is read after the first op: how many
    more fit the window depends on the host, and memory may grow with them.
    """
    def sample() -> float:
        with tracer.span("bench.calibrate"):
            return slowness()

    first_op_wall = time.time()
    samples = [sample()]
    raw: list[float] = []
    start = time.perf_counter()
    while keep_going(len(raw), time.perf_counter() - start, window, fixed):
        t0 = time.perf_counter()
        op(len(raw))
        raw.append(time.perf_counter() - t0)
        if len(raw) == 1:
            peak = peak_rss_mb()
        samples.append(sample())
    return dict(first_op_wall=first_op_wall, raw_op_s=raw, slowness=samples,
                op_s=calibrate(raw, samples), peak_rss_mb=peak)


def median_seconds(fn: Callable[[], object], calls: int, warmup: int = 3) -> float:
    """Median calibrated host seconds of one ``fn()`` over ``calls`` timed calls."""
    for _ in range(warmup):
        fn()
    before = slowness()
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples) / (0.5 * (before + slowness()))
