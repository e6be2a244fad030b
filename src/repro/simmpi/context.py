"""RunContext: the single instrumentation spine of an SPMD run.

Before this existed, one run scattered its observability across three
disconnected paths — :class:`~repro.simmpi.stats.TrafficStats` counters in
the engine, an optional :class:`~repro.simmpi.trace.TraceEvent` list, and
ad-hoc per-phase timings stashed in trainer ``extras`` dicts. A
:class:`RunContext` owns all three: the engine creates one per world,
every communicator can reach it (``comm.context``), strategy trainers
record phase timings into it, and the result objects /
:class:`~repro.train.metrics.MetricsLogger` read it back out.

All timings are *virtual* seconds (the modelled machine's clock).
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from pathlib import Path
from typing import Any

from repro.errors import ConfigError
from repro.obs.export import chrome_trace_records
from repro.obs.flight import FlightRecorder
from repro.obs.registry import NULL_REGISTRY, MetricRegistry, NullRegistry
from repro.obs.router import RouterTelemetry
from repro.obs.spans import NULL_TRACER, NullTracer, Tracer
from repro.simmpi.stats import TrafficStats
from repro.simmpi.trace import TraceEvent

__all__ = ["RunContext"]


class RunContext:
    """Traffic counters + trace stream + phase timers for one SPMD world.

    Shared by every rank thread of the run; phase accumulation is guarded
    by a lock (TrafficStats and the trace list are already updated under
    the world lock by the engine).

    With ``observe=True`` the context additionally owns a
    :class:`~repro.obs.registry.MetricRegistry` and
    :class:`~repro.obs.router.RouterTelemetry` that instrumented code
    emits into; without it, ``metrics`` is the shared no-op
    :data:`~repro.obs.registry.NULL_REGISTRY`, so emission sites never
    branch. The bounded :class:`~repro.obs.flight.FlightRecorder` is
    always on — its cost is O(1) ring appends — so every failure
    post-mortem has the last operations of every rank.
    """

    def __init__(self, trace: bool = False, observe: bool = False):
        #: Aggregate traffic counters (updated by the engine).
        self.stats = TrafficStats()
        #: Virtual-time event stream, or None when tracing is off.
        self.trace_events: list[TraceEvent] | None = [] if trace else None
        self._phase_lock = threading.Lock()
        self._phases: Counter[str] = Counter()
        #: Run-lifecycle events (restart / backoff / reshard ...): plain
        #: dicts with at least ``kind`` and a virtual timestamp ``t``.
        self.events: list[dict[str, Any]] = []
        #: Labeled metric series; the shared no-op when not observing.
        self.metrics: MetricRegistry | NullRegistry = (
            MetricRegistry() if observe else NULL_REGISTRY
        )
        #: Per-layer per-step MoE router telemetry (None when disabled).
        self.router: RouterTelemetry | None = RouterTelemetry() if observe else None
        #: Causal span trees (requests, launches, scale decisions); the
        #: shared no-op unless tracing or observing, so span emission
        #: sites never branch and tracing-off output is unchanged.
        self.spans: Tracer | NullTracer = (
            Tracer() if (trace or observe) else NULL_TRACER
        )
        #: Always-on bounded ring of recent per-rank activity.
        self.flight = FlightRecorder()

    # ------------------------------------------------------------------ #
    # Phase timers
    # ------------------------------------------------------------------ #

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of virtual time under phase ``name``."""
        if seconds < 0:
            raise ConfigError(f"phase {name!r} got negative duration {seconds}")
        with self._phase_lock:
            self._phases[name] += seconds

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Accumulated virtual seconds per phase, sorted by phase name."""
        with self._phase_lock:
            return {k: float(self._phases[k]) for k in sorted(self._phases)}

    # ------------------------------------------------------------------ #
    # Lifecycle events + session aggregation
    # ------------------------------------------------------------------ #

    def record_event(self, kind: str, t: float = 0.0, **fields: Any) -> dict[str, Any]:
        """Append a lifecycle event (restart / backoff / reshard / ...).

        ``t`` is the event's virtual timestamp. The Chrome trace draws
        every event as a global instant
        (:func:`~repro.obs.export.chrome_trace_records`), so recovery
        structure is visible next to the communication timeline.
        """
        event = {"kind": kind, "t": float(t), **fields}
        with self._phase_lock:
            self.events.append(event)
        self.flight.note(kind, t=t, **fields)
        return event

    def events_of(self, kind: str) -> list[dict[str, Any]]:
        """Every recorded event of one ``kind``, in record order."""
        return [e for e in self.events if e["kind"] == kind]

    def absorb(self, other: "RunContext", clock_offset: float = 0.0, world: int = 0) -> None:
        """Fold another context into this one (session aggregation).

        Recovery drivers run many SPMD launches, each with its own
        engine-created context; absorbing them (trace timestamps shifted
        by ``clock_offset`` onto the session timeline) yields one spine
        for the whole fault-tolerant session. ``world`` stamps the absorbed
        trace events with the world they ran on (a fleet's replica), so
        the Chrome trace gives each world its own process.
        """
        self.stats.merge(other.stats)
        with self._phase_lock:
            for name, seconds in other._phases.items():
                self._phases[name] += seconds
        if self.trace_events is not None and other.trace_events is not None:
            for e in other.trace_events:
                self.trace_events.append(
                    TraceEvent(
                        rank=e.rank,
                        op=e.op,
                        t_start=e.t_start + clock_offset,
                        t_end=e.t_end + clock_offset,
                        nbytes=e.nbytes,
                        hidden=e.hidden,
                        world=world,
                    )
                )
        with self._phase_lock:
            for event in other.events:
                shifted = dict(event)
                shifted["t"] = event.get("t", 0.0) + clock_offset
                self.events.append(shifted)
        self.metrics.merge(other.metrics)
        if self.router is not None and other.router is not None:
            self.router.absorb(other.router)
        self.spans.absorb(other.spans, clock_offset=clock_offset)
        self.flight.absorb(other.flight, clock_offset=clock_offset)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    @property
    def tracing(self) -> bool:
        """Whether this run records TraceEvents."""
        return self.trace_events is not None

    @property
    def observing(self) -> bool:
        """Whether this run carries a live metric registry."""
        return self.metrics.enabled

    def summary(self) -> dict[str, Any]:
        """One nested dict of everything the context observed."""
        return {
            "traffic": self.stats.summary(),
            "phase_seconds": self.phase_seconds,
            "num_trace_events": len(self.trace_events) if self.tracing else 0,
            "num_events": len(self.events),
            "tracing": self.tracing,
            "observing": self.observing,
            "num_metric_series": len(self.metrics),
            "num_router_samples": len(self.router) if self.router else 0,
            "num_spans": len(self.spans),
        }

    def metrics_record(self) -> dict[str, Any]:
        """A flat record for :class:`~repro.train.metrics.MetricsLogger`.

        Phase timers become ``phase_<name>`` keys; traffic totals keep
        their summary names. Values are plain scalars, so the record is
        safe for both JSONL and CSV sinks.
        """
        traffic = self.stats.summary()
        record: dict[str, Any] = {
            "p2p_messages": traffic["p2p_messages"],
            "p2p_bytes": traffic["p2p_bytes"],
            "total_bytes": traffic["total_bytes"],
        }
        for name, seconds in self.phase_seconds.items():
            record[f"phase_{name}"] = seconds
        kinds = Counter(e["kind"] for e in self.events)
        for kind in sorted(kinds):
            record[f"events_{kind}"] = int(kinds[kind])
        return record

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the run as Chrome-tracing JSON: rank lanes, lifecycle
        instants and span trees (see
        :func:`~repro.obs.export.chrome_trace_records`); returns the path.
        Same context, same bytes."""
        if self.trace_events is None:
            raise ConfigError(
                "run was not traced; launch with trace=True "
                "(TrainingRunConfig(trace=True) or run_spmd(trace=True))"
            )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": chrome_trace_records(self)}))
        return path
