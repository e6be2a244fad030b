"""Unified observability: metric registry, profilers, flight recorder.

BaGuaLu's headline results are measurements — scaling efficiency,
alltoall bandwidth, expert load balance — so the reproduction needs one
measurement substrate rather than scattered counters. This package
supplies it, layered on the :class:`~repro.simmpi.RunContext` spine:

- :mod:`~repro.obs.registry` — labeled ``Counter`` / ``Gauge`` /
  ``Histogram`` series; a no-op :data:`NULL_REGISTRY` when disabled.
- :mod:`~repro.obs.comm` — per-collective, per-rank comm profile with
  achieved-vs-costmodel bandwidth utilization.
- :mod:`~repro.obs.router` — per-layer per-step MoE expert-load
  telemetry (imbalance / cv / drop timeseries, heatmaps).
- :mod:`~repro.obs.flight` — bounded per-rank flight recorder, dumped
  automatically onto fault / deadlock / overflow exceptions.
- :mod:`~repro.obs.spans` — per-request / per-launch span trees on the
  virtual clock, with causal parent links.
- :mod:`~repro.obs.timeseries` — the sliding window (count / rate /
  quantile over the trailing virtual seconds) and the one percentile.
- :mod:`~repro.obs.slo` — declarative latency SLOs with a multi-window
  burn-rate alert engine.
- :mod:`~repro.obs.export` — Prometheus text exposition, JSONL records,
  and the records of the one Chrome trace (rank lanes, lifecycle
  instants, span trees) that ``RunContext.write_chrome_trace`` writes.
- :mod:`~repro.obs.report` — deterministic markdown run reports
  (the ``report`` CLI subcommand).
"""

from repro.obs.comm import CommProfile, CommRecord, profile_comm
from repro.obs.export import registry_records, to_prometheus
from repro.obs.flight import FlightRecorder
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
)
from repro.obs.report import build_report, collect_run_records, generate_run_report
from repro.obs.router import RouterSample, RouterTelemetry
from repro.obs.slo import (
    BurnRateWindow,
    SLOMonitor,
    SLOObjective,
    default_burn_windows,
    slo_report,
)
from repro.obs.spans import NULL_TRACER, NullTracer, Span, Tracer, span_coverage
from repro.obs.timeseries import SlidingWindow

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "CommProfile",
    "CommRecord",
    "profile_comm",
    "RouterSample",
    "RouterTelemetry",
    "FlightRecorder",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span_coverage",
    "SlidingWindow",
    "SLOObjective",
    "BurnRateWindow",
    "SLOMonitor",
    "default_burn_windows",
    "slo_report",
    "to_prometheus",
    "registry_records",
    "collect_run_records",
    "build_report",
    "generate_run_report",
]
