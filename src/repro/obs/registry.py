"""Labeled metric registry: Counter / Gauge / Histogram with tag sets.

This is the substrate every entry point (strategy trainers, the elastic
:class:`~repro.resilience.Supervisor`, the serving engine) emits into, via
the :class:`~repro.simmpi.RunContext` spine that owns one registry per
run. Design constraints, in order:

1. **Near-zero cost when disabled.** A run launched without
   ``observe=True`` carries :data:`NULL_REGISTRY`: every factory call
   returns a shared no-op instrument whose ``inc``/``set``/``observe``
   bodies are empty, so instrumented hot paths pay one attribute lookup
   and one no-op call. Verified by a micro-timing test and by a
   loss-trajectory-equality test (observability must never perturb
   numerics).
2. **Deterministic export.** Series are keyed by ``(name, sorted labels)``
   and every snapshot/exposition walks them in sorted order, so two runs
   with the same seed serialize byte-identically.
3. **Thread safety under the engine's model.** One Python thread per
   simulated rank may hit the same counter concurrently; creation and
   mutation are lock-guarded so concurrent increments sum exactly.

Values are plain floats on the *virtual* timeline (simulated-machine
seconds where they are times).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

import numpy as np

from repro.errors import ConfigError
from repro.obs.timeseries import percentile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

#: Canonical label encoding: a tuple of (key, str(value)) pairs sorted by
#: key — hashable, order-independent at the call site, sorted on export.
LabelSet = tuple  # tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Common shape of one metric series (name + frozen label set)."""

    kind = "metric"
    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tags = ", ".join(f"{k}={v}" for k, v in self.labels)
        return f"{type(self).__name__}({self.name}{{{tags}}})"


class Counter(_Instrument):
    """Monotonically increasing total (steps, bytes, tokens, restarts)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge(_Instrument):
    """Last-written value (loss, imbalance, world size)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram(_Instrument):
    """Sample distribution with percentile summaries (latencies, loads).

    Samples are stored raw (runs here are small worlds on a simulator);
    summaries flatten to count/sum/mean/p50/p95/max like
    :class:`~repro.train.metrics.LatencyStats`. A trailing-window view
    over virtual time is :class:`~repro.obs.timeseries.SlidingWindow`,
    which its consumers (the autoscaler, the SLO monitor) feed directly.
    """

    kind = "histogram"
    __slots__ = ("_samples",)

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self._samples.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        with self._lock:
            self._samples.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return float(np.sum(self._samples)) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        return percentile(self._samples, q)

    def summary(self) -> dict[str, float]:
        if not self._samples:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "p50": 0.0, "p95": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": float(max(self._samples)),
        }


class MetricRegistry:
    """Get-or-create store of labeled instruments, one per run.

    ``registry.counter("comm_bytes", op="alltoall").inc(n)`` — the first
    call with a given (name, labels) pair creates the series, later calls
    return the same object. Asking for an existing name with a different
    instrument kind raises :class:`~repro.errors.ConfigError` (one name,
    one type — the Prometheus rule).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[tuple[str, LabelSet], _Instrument] = {}

    # -- factories ------------------------------------------------------ #

    def _get(self, cls: type, name: str, labels: dict[str, Any]) -> Any:
        if not name:
            raise ConfigError("metric name must be non-empty")
        key = (name, _label_key(labels))
        with self._lock:
            found = self._series.get(key)
            if found is None:
                found = cls(name, key[1])
                self._series[key] = found
            elif not isinstance(found, cls):
                raise ConfigError(
                    f"metric {name!r} already registered as {found.kind}, "
                    f"cannot re-register as {cls.kind}"
                )
            return found

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- introspection / export ---------------------------------------- #

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> list[_Instrument]:
        """Every instrument, sorted by (name, labels) — deterministic."""
        with self._lock:
            return [self._series[k] for k in sorted(self._series)]

    def snapshot(self) -> list[dict[str, Any]]:
        """One plain dict per series, in deterministic order.

        Counters and gauges carry ``value``; histograms carry the summary
        fields (count/sum/mean/p50/p95/max). Labels flatten to a sorted
        ``k=v,...`` string so records are scalar-only (CSV/JSONL safe).
        """
        out = []
        for inst in self.series():
            rec: dict[str, Any] = {
                "metric": inst.name,
                "type": inst.kind,
                "labels": ",".join(f"{k}={v}" for k, v in inst.labels),
            }
            if isinstance(inst, Histogram):
                rec.update(inst.summary())
            else:
                rec["value"] = inst.value
            out.append(rec)
        return out

    def merge(self, other: "MetricRegistry | NullRegistry") -> None:
        """Fold another registry in (session aggregation across launches).

        Counters add, gauges take the absorbed value (the later launch
        wins), histograms concatenate samples.
        """
        if not getattr(other, "enabled", False):
            return
        for inst in other.series():
            labels = inst.label_dict
            if isinstance(inst, Counter):
                self.counter(inst.name, **labels).inc(inst.value)
            elif isinstance(inst, Gauge):
                self.gauge(inst.name, **labels).set(inst.value)
            elif isinstance(inst, Histogram):
                self.histogram(inst.name, **labels).observe_many(inst._samples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricRegistry({len(self)} series)"


class _NullInstrument:
    """Shared do-nothing instrument returned by :class:`NullRegistry`."""

    kind = "null"
    name = ""
    labels: LabelSet = ()
    label_dict: dict[str, str] = {}
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0, "sum": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "max": 0.0}


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled registry: every factory returns one shared no-op.

    Instrumented code never branches on whether observability is on — it
    calls ``context.metrics.counter(...).inc()`` unconditionally and the
    null path costs two attribute lookups and an empty call. Hot loops
    that build label dicts per call can still guard on
    ``registry.enabled`` to skip even that.
    """

    enabled = False

    def counter(self, name: str, **labels: Any) -> Any:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> Any:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> Any:
        return _NULL_INSTRUMENT

    def __len__(self) -> int:
        return 0

    def series(self) -> list:
        return []

    def snapshot(self) -> list:
        return []

    def merge(self, other: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullRegistry()"


#: The process-wide disabled registry (stateless, safe to share).
NULL_REGISTRY = NullRegistry()
