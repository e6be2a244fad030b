"""Run-report generation: one markdown post-mortem per run.

``collect_run_records`` flattens everything a :class:`RunContext` spine
observed — context totals, comm profile, router telemetry, registry
snapshot — into typed JSONL records (``record`` ∈ ``context`` / ``comm``
/ ``router`` / ``metric``), written next to the per-step records the CLI
entry points already log. ``build_report`` renders those records back
into a deterministic markdown report: phase breakdown, traffic and comm
tables, router heatmap, SLO percentiles, lifecycle events. Deterministic
means *byte-stable*: all timings are virtual, floats render through one
fixed format, and every table is sorted — two same-seed runs produce
identical reports, so the report itself can be diffed in CI.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import ConfigError
from repro.obs.comm import profile_comm
from repro.obs.export import registry_records

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.costmodel import NetworkModel
    from repro.simmpi.context import RunContext

__all__ = [
    "collect_run_records",
    "build_report",
    "generate_run_report",
    "fmt_scalar",
    "kv_table",
]

_HEAT_RAMP = " .:-=+*#%@"


def fmt_scalar(value: Any) -> str:
    """One fixed rendering for every scalar (byte-stable across runs).

    Shared by every deterministic markdown report (run reports here, plan
    reports in :mod:`repro.plan.report`): floats always render through one
    format so two same-seed runs produce byte-identical documents.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


_fmt = fmt_scalar


def collect_run_records(
    context: "RunContext",
    network: "NetworkModel | None" = None,
) -> list[dict[str, Any]]:
    """Flatten a context's observability state into typed JSONL records.

    Always emits one ``record="context"`` snapshot; adds ``comm`` rows
    (from :func:`~repro.obs.comm.profile_comm`), ``router`` rows,
    ``metric`` rows, and ``span`` rows when the context carries them.
    Safe on any context — an unobserved run just yields the context
    snapshot plus whatever the trace/TrafficStats can support.
    """
    records: list[dict[str, Any]] = [
        {"record": "context", **context.metrics_record()}
    ]
    profile = profile_comm(context, network=network)
    records.extend({"record": "comm", **rec} for rec in profile.records())
    router = getattr(context, "router", None)
    if router is not None:
        records.extend({"record": "router", **rec} for rec in router.records())
    metrics = getattr(context, "metrics", None)
    if metrics is not None:
        records.extend(registry_records(metrics))
    spans = getattr(context, "spans", None)
    if spans is not None and getattr(spans, "enabled", False):
        records.extend({"record": "span", **rec} for rec in spans.records())
    return records


# ---------------------------------------------------------------------- #
# Section renderers (each returns a list of markdown lines, possibly empty)
# ---------------------------------------------------------------------- #


def kv_table(rows: Iterable[tuple[str, Any]]) -> list[str]:
    """Markdown key/value table lines (scalars through :func:`fmt_scalar`)."""
    lines = ["| key | value |", "| --- | --- |"]
    lines += [f"| {k} | {_fmt(v)} |" for k, v in rows]
    return lines


_kv_table = kv_table


def _section_summary(records: list[dict]) -> list[str]:
    summaries = [r for r in records if r.get("record") == "summary"]
    if not summaries:
        return []
    lines = ["## Run summary", ""]
    for s in summaries:
        rows = [(k, s[k]) for k in sorted(s) if k != "record"]
        lines += _kv_table(rows) + [""]
    return lines


def _context_records(records: list[dict]) -> list[dict]:
    tagged = [r for r in records if r.get("record") == "context"]
    if tagged:
        return tagged
    # Older logs carry an untagged context snapshot (distributed CLI).
    return [
        r for r in records
        if "record" not in r and "total_bytes" in r and "p2p_bytes" in r
    ]


def _section_phases(records: list[dict]) -> list[str]:
    phases: dict[str, float] = {}
    for ctx in _context_records(records):
        for key, value in ctx.items():
            if key.startswith("phase_"):
                name = key[len("phase_"):]
                phases[name] = phases.get(name, 0.0) + float(value)
    if not phases:
        return []
    total = sum(phases.values())
    lines = [
        "## Phase breakdown",
        "",
        "| phase | virtual seconds | share |",
        "| --- | --- | --- |",
    ]
    for name in sorted(phases):
        share = phases[name] / total if total > 0 else 0.0
        lines.append(f"| {name} | {_fmt(phases[name])} | {share:.1%} |")
    lines.append("")
    return lines


def _section_traffic(records: list[dict]) -> list[str]:
    ctxs = _context_records(records)
    if not ctxs:
        return []
    totals: dict[str, float] = {}
    for ctx in ctxs:
        for key in ("p2p_messages", "p2p_bytes", "total_bytes"):
            if key in ctx:
                totals[key] = totals.get(key, 0.0) + float(ctx[key])
    if not totals:
        return []
    rows = [(k, int(totals[k])) for k in sorted(totals)]
    return ["## Traffic", ""] + _kv_table(rows) + [""]


def _section_comm(records: list[dict]) -> list[str]:
    comm = [r for r in records if r.get("record") == "comm"]
    if not comm:
        return []
    # Collapse ranks: bytes/seconds summed per op for the table (the JSONL
    # keeps the per-rank rows for deeper digging).
    by_op: dict[str, dict[str, float]] = {}
    for r in comm:
        agg = by_op.setdefault(
            r["op"], {"calls": 0, "nbytes": 0, "seconds": 0.0, "model_seconds": 0.0,
                      "hidden": 0.0, "modelled": True}
        )
        agg["calls"] = max(agg["calls"], r["calls"])
        agg["nbytes"] += r["nbytes"]
        agg["seconds"] = max(agg["seconds"], r["seconds"])
        agg["hidden"] = max(agg["hidden"], r.get("hidden_seconds", 0.0))
        if r.get("model_seconds", -1.0) < 0:
            agg["modelled"] = False
        else:
            agg["model_seconds"] = max(agg["model_seconds"], r["model_seconds"])
    lines = [
        "## Communication",
        "",
        "| op | calls | bytes | virtual seconds | model seconds | utilization | hidden seconds |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for op in sorted(by_op):
        agg = by_op[op]
        if agg["modelled"] and agg["seconds"] > 0:
            model = _fmt(agg["model_seconds"])
            util = f"{agg['model_seconds'] / agg['seconds']:.2f}"
        else:
            model, util = "-", "-"
        hidden = _fmt(agg["hidden"]) if agg["hidden"] > 0 else "-"
        lines.append(
            f"| {op} | {int(agg['calls'])} | {int(agg['nbytes'])} | "
            f"{_fmt(agg['seconds'])} | {model} | {util} | {hidden} |"
        )
    lines.append("")
    return lines


def _section_router(records: list[dict]) -> list[str]:
    router = [r for r in records if r.get("record") == "router"]
    if not router:
        return []
    layers = sorted({r["layer"] for r in router})
    lines = [
        "## Router",
        "",
        "| layer | steps | experts | mean imbalance | max imbalance | mean cv | mean drop |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for layer in layers:
        series = [r for r in router if r["layer"] == layer]
        imb = [r["imbalance"] for r in series]
        cv = [r["cv"] for r in series]
        drop = [r["drop_fraction"] for r in series]
        lines.append(
            f"| {layer} | {len(series)} | {len(series[0]['loads'])} | "
            f"{_fmt(sum(imb) / len(imb))} | {_fmt(max(imb))} | "
            f"{_fmt(sum(cv) / len(cv))} | {_fmt(sum(drop) / len(drop))} |"
        )
    lines.append("")
    # Heatmap of the first layer: rows = steps, columns = experts.
    layer = layers[0]
    series = [r for r in router if r["layer"] == layer]
    lines += [f"Expert-load heatmap, layer {layer} "
              "(rows = steps, columns = experts):", "", "```"]
    for r in series:
        loads = r["loads"]
        peak = max(loads) if loads else 0.0
        if peak <= 0:
            cells = " " * len(loads)
        else:
            cells = "".join(
                _HEAT_RAMP[min(int(v / peak * (len(_HEAT_RAMP) - 1)),
                               len(_HEAT_RAMP) - 1)]
                for v in loads
            )
        lines.append(f"step {r['step']:>4} |{cells}|")
    lines += ["```", ""]
    return lines


def _section_metrics(records: list[dict]) -> list[str]:
    metrics = [r for r in records if r.get("record") == "metric"]
    if not metrics:
        return []
    lines = [
        "## Metrics",
        "",
        "| metric | type | labels | value |",
        "| --- | --- | --- | --- |",
    ]
    for r in sorted(metrics, key=lambda r: (r["metric"], r.get("labels", ""))):
        if r["type"] == "histogram":
            value = (f"count={_fmt(r['count'])} mean={_fmt(r['mean'])} "
                     f"p50={_fmt(r['p50'])} p95={_fmt(r['p95'])} "
                     f"max={_fmt(r['max'])}")
        else:
            value = _fmt(r["value"])
        lines.append(
            f"| {r['metric']} | {r['type']} | {r.get('labels', '') or '-'} | {value} |"
        )
    lines.append("")
    return lines


def _section_slo(records: list[dict]) -> list[str]:
    rows = []
    for s in records:
        if s.get("record") != "summary":
            continue
        for prefix, label in (("ttft_", "ttft"), ("token_", "token latency")):
            if s.get(f"{prefix}count"):
                rows.append(
                    (label, s[f"{prefix}count"], s[f"{prefix}p50"],
                     s[f"{prefix}p95"], s[f"{prefix}max"])
                )
    if not rows:
        return []
    lines = [
        "## Serving SLO",
        "",
        "| latency | count | p50 (s) | p95 (s) | max (s) |",
        "| --- | --- | --- | --- | --- |",
    ]
    for label, count, p50, p95, mx in rows:
        lines.append(
            f"| {label} | {int(count)} | {_fmt(p50)} | {_fmt(p95)} | {_fmt(mx)} |"
        )
    lines.append("")
    return lines


def _section_spans(records: list[dict]) -> list[str]:
    spans = [r for r in records if r.get("record") == "span"]
    if not spans:
        return []
    roots = [s for s in spans if s.get("parent_id") is None]
    by_kind: dict[str, list[float]] = {}
    for s in spans:
        by_kind.setdefault(s.get("kind", "span"), []).append(
            float(s.get("duration") or 0.0)
        )
    lines = [
        "## Spans",
        "",
        f"{len(spans)} spans in {len(roots)} trees.",
        "",
        "| kind | spans | total virtual s | mean virtual s |",
        "| --- | --- | --- | --- |",
    ]
    for kind in sorted(by_kind):
        durs = by_kind[kind]
        total = sum(durs)
        lines.append(
            f"| {kind} | {len(durs)} | {_fmt(total)} | "
            f"{_fmt(total / len(durs))} |"
        )
    lines.append("")
    return lines


def _section_losses(records: list[dict]) -> list[str]:
    steps = [
        r for r in records
        if "step" in r and "loss" in r and r.get("record") in (None, "step")
    ]
    if not steps:
        return []
    steps = sorted(steps, key=lambda r: r["step"])
    first, last = steps[0], steps[-1]
    lines = [
        "## Training loss",
        "",
        f"{len(steps)} steps; loss {_fmt(first['loss'])} "
        f"(step {first['step']}) -> {_fmt(last['loss'])} (step {last['step']}).",
        "",
    ]
    return lines


def _section_events(records: list[dict]) -> list[str]:
    events = [r for r in records if r.get("record") == "event" and "kind" in r]
    if not events:
        return []
    lines = [
        "## Lifecycle events",
        "",
        "| t (virtual s) | kind | detail |",
        "| --- | --- | --- |",
    ]
    for e in events:
        detail = " ".join(
            f"{k}={_fmt(e[k])}" for k in sorted(e)
            if k not in ("record", "kind", "t")
        )
        lines.append(f"| {_fmt(e.get('t', 0.0))} | {e['kind']} | {detail or '-'} |")
    lines.append("")
    return lines


def build_report(
    records: Sequence[Mapping[str, Any]], title: str = "Run report"
) -> str:
    """Render typed run records into one deterministic markdown report.

    Sections render only when their records are present, so the same
    function serves ``distributed``, ``resilient``, and ``serve`` output.
    """
    records = [dict(r) for r in records]
    lines = [f"# {title}", "", f"{len(records)} records.", ""]
    for section in (
        _section_summary,
        _section_phases,
        _section_traffic,
        _section_comm,
        _section_router,
        _section_metrics,
        _section_slo,
        _section_spans,
        _section_losses,
        _section_events,
    ):
        lines += section(records)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def generate_run_report(
    metrics_path: str | Path,
    out_path: str | Path | None = None,
    title: str | None = None,
) -> str:
    """Read a run's JSONL metrics file and render its markdown report.

    Returns the report text; also writes it to ``out_path`` when given.
    """
    from repro.train.metrics import read_jsonl

    metrics_path = Path(metrics_path)
    if metrics_path.suffix.lower() != ".jsonl":
        raise ConfigError(
            f"run reports need a .jsonl metrics file, got {metrics_path.name!r}"
        )
    records = read_jsonl(metrics_path)
    report = build_report(records, title=title or f"Run report: {metrics_path.name}")
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report)
    return report
