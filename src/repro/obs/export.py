"""Exporters: Prometheus text exposition, JSONL records, Chrome traces.

One registry, two sinks, plus the run's timeline:

- :func:`to_prometheus` renders the standard text exposition format, so a
  node-local scrape target (or a file-based textfile collector) can ship
  the run's metrics into an existing dashboard stack.
- :func:`registry_records` flattens the registry into scalar-only dicts
  for :meth:`~repro.train.metrics.MetricsLogger.log_events` — the same
  JSONL stream the trainers already write, so ``report`` reads one file.
- :func:`chrome_trace_records` builds every record of the one Chrome
  trace (:meth:`RunContext.write_chrome_trace` writes it): per-rank
  slices, lifecycle-event instants, and — when the context carries
  spans — a second ``spans`` process of causal request/launch trees with
  flow events, so a recovery session's restarts and a fleet's
  per-request latency breakdowns are visible on the Perfetto timeline
  next to the collectives they interrupted. No other module knows the
  Chrome record format.

All output is deterministic: series are walked in the registry's sorted
order, label sets render pre-sorted, and rank slices sort by rank.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any

from repro.obs.registry import Histogram, MetricRegistry, NullRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.context import RunContext

__all__ = ["to_prometheus", "registry_records", "chrome_trace_records"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return f"repro_{_NAME_OK.sub('_', name)}"


def _prom_labels(pairs: tuple, extra: dict[str, str] | None = None) -> str:
    items = list(pairs)
    if extra:
        items = sorted(items + list(extra.items()))
    if not items:
        return ""
    body = ",".join(
        '{}="{}"'.format(
            _NAME_OK.sub("_", k),
            str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n"),
        )
        for k, v in items
    )
    return "{" + body + "}"


def to_prometheus(registry: "MetricRegistry | NullRegistry") -> str:
    """Render a registry in the Prometheus text exposition format, every
    family named ``repro_<metric>``.

    Counters and gauges emit one sample; histograms emit a summary-style
    family (``_count`` / ``_sum`` plus ``quantile`` samples for p50/p95).
    A disabled registry renders to an empty string.
    """
    by_name: dict[str, list] = {}
    for inst in registry.series():
        by_name.setdefault(inst.name, []).append(inst)
    lines: list[str] = []
    for name in sorted(by_name):
        family = by_name[name]
        kind = family[0].kind
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} {'summary' if kind == 'histogram' else kind}")
        for inst in family:
            if isinstance(inst, Histogram):
                s = inst.summary()
                for q, key in (("0.5", "p50"), ("0.95", "p95")):
                    lines.append(
                        f"{prom}{_prom_labels(inst.labels, {'quantile': q})} {s[key]:g}"
                    )
                lines.append(f"{prom}_count{_prom_labels(inst.labels)} {s['count']:g}")
                lines.append(f"{prom}_sum{_prom_labels(inst.labels)} {s['sum']:g}")
            else:
                lines.append(f"{prom}{_prom_labels(inst.labels)} {inst.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def registry_records(registry: "MetricRegistry | NullRegistry") -> list[dict[str, Any]]:
    """Scalar-only per-series dicts, tagged ``record="metric"`` for the
    run JSONL (what the ``report`` subcommand reads back)."""
    return [{"record": "metric", **rec} for rec in registry.snapshot()]


def _us(seconds: float) -> float:
    """Virtual seconds on the trace viewer's microsecond axis."""
    return seconds * 1e6


def _slice(name: str, t_start: float, t_end: float, pid: int, tid: int,
           args: dict[str, Any], cat: str | None = None) -> dict[str, Any]:
    """A ``ph=X`` slice; a zero-length interval keeps a visible 0.001 us."""
    rec: dict[str, Any] = {"name": name}
    if cat is not None:
        rec["cat"] = cat
    rec.update(ph="X", ts=_us(t_start), dur=max(_us(t_end - t_start), 0.001),
               pid=pid, tid=tid, args=args)
    return rec


def _lane_name(name: str, pid: int, tid: int | None = None) -> dict[str, Any]:
    """A ``ph=M`` record naming a process (``tid`` None) or a thread lane."""
    rec: dict[str, Any] = {"name": "process_name" if tid is None else "thread_name",
                           "ph": "M", "pid": pid}
    if tid is not None:
        rec["tid"] = tid
    rec["args"] = {"name": name}
    return rec


def _world_pid(world: int) -> int:
    """World 0 keeps pid 0 and the ``spans`` process pid 1; world N > 0 is pid N + 1."""
    return world + 1 if world else 0


def chrome_trace_records(context: "RunContext") -> list[dict[str, Any]]:
    """Every Chrome-tracing record of a traced context, in file order.

    Each simulated world (:attr:`~repro.simmpi.TraceEvent.world`) is a
    process with one ``rank N`` lane per rank holding that rank's slices:
    one world is the ``simulated world`` (pid 0), a fleet's worlds are
    ``replica N`` (:func:`_world_pid`). One ``ph=i`` instant per lifecycle
    event follows on pid 0. Span trees, when present, form a ``spans``
    process (pid 1) with one lane per root and ``ph=s``/``ph=f`` flow
    arrows binding each parent to each child. Rank slices are stably
    sorted by (world, rank): rank threads append concurrently, so the raw
    stream's order is the thread scheduler's, while each rank's own
    program order is fixed.
    """
    ranked = sorted(context.trace_events, key=lambda e: (e.world, e.rank))
    worlds = sorted({e.world for e in ranked}) or [0]
    out = []
    for world in worlds:
        pid = _world_pid(world)
        out.append(_lane_name("simulated world" if len(worlds) == 1 else f"replica {world}", pid))
        out += [_lane_name(f"rank {r}", pid, r)
                for r in sorted({e.rank for e in ranked if e.world == world})]
    for e in ranked:
        args: dict[str, Any] = {"nbytes": e.nbytes}
        if e.hidden:
            args["hidden_seconds"] = e.hidden
        out.append(_slice(e.op, e.t_start, e.t_end, _world_pid(e.world), e.rank, args))
    out += [
        {
            "name": event["kind"],
            "ph": "i",
            "ts": _us(event.get("t", 0.0)),
            "pid": 0,
            "tid": 0,
            "s": "g",
            "args": {k: v for k, v in event.items() if k not in ("kind", "t")},
        }
        for event in context.events
    ]
    spans = context.spans.spans
    if spans:
        out.append(_lane_name("spans", 1))
        out += [_lane_name(f"{r.name} #{r.span_id}", 1, r.span_id)
                for r in context.spans.roots()]
    lane: dict[int, int] = {}
    for span in spans:
        parent = None if span.parent_id is None else spans[span.parent_id]
        lane[span.span_id] = span.span_id if parent is None else lane[parent.span_id]
        end = span.t_start if span.t_end is None else span.t_end
        out.append(_slice(span.name, span.t_start, end, 1, lane[span.span_id],
                          {k: span.attrs[k] for k in sorted(span.attrs)},
                          cat=span.kind))
        if parent is not None:
            flow = {"name": "causality", "cat": span.kind}
            out.append({**flow, "ph": "s", "id": span.span_id,
                        "ts": _us(parent.t_start), "pid": 1,
                        "tid": lane[parent.span_id]})
            out.append({**flow, "ph": "f", "bp": "e", "id": span.span_id,
                        "ts": _us(span.t_start), "pid": 1,
                        "tid": lane[span.span_id]})
    return out
