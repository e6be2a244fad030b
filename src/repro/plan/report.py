"""Deterministic markdown plan reports + typed planner records.

Mirrors :mod:`repro.obs.report`: the planner's outcome flattens into typed
JSONL records (``record`` ∈ ``plan_summary`` / ``plan_candidate`` /
``plan_verified`` / ``plan_calibration`` / ``plan_rejected``) and renders
into a byte-stable markdown report — floats through the shared
:func:`~repro.obs.report.fmt_scalar`, every table sorted or rank-ordered,
no wall-clock anywhere — so two planner runs over the same inputs produce
byte-identical documents CI can ``cmp``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.layout import ParallelLayout
from repro.obs.report import fmt_scalar as _fmt
from repro.obs.report import kv_table as _kv_table
from repro.plan.search import PlanResult

__all__ = [
    "plan_records",
    "write_plan_records",
    "build_plan_report",
    "generate_plan_report",
]

#: Rows shown per table before the deterministic "... and N more" cut.
_MAX_ROWS = 32


def _axes_fields(layout: ParallelLayout) -> dict[str, int]:
    return {
        "dp": layout.dp_size,
        "tp": layout.tp_size,
        "pp": layout.pp_size,
        "ep": layout.ep_size,
        "zero": layout.zero_shards,
    }


def _axes_str(layout: ParallelLayout) -> str:
    return " ".join(f"{axis}={n}" for axis, n in _axes_fields(layout).items())


def plan_records(result: PlanResult) -> list[dict[str, Any]]:
    """Flatten a planner result into typed JSONL records."""
    cfg = result.config
    records: list[dict[str, Any]] = [
        {
            "record": "plan_summary",
            "model": cfg.model.name,
            "num_nodes": cfg.num_nodes,
            "cluster": cfg.cluster,
            "micro_batch": cfg.micro_batch,
            "seq_len": cfg.seq_len,
            "num_microbatches": cfg.num_microbatches,
            "num_candidates": len(result.candidates),
            "num_rejected": len(result.rejected),
            "num_verified": len(result.verified),
        }
    ]
    for rank, cand in enumerate(result.candidates, start=1):
        records.append(
            {
                "record": "plan_candidate",
                "rank": rank,
                **_axes_fields(cand.layout),
                "strategy": cand.strategy,
                "predicted_step_time": cand.predicted_step_time,
                "tokens_per_second": cand.tokens_per_second,
                **{
                    f"t_{name}": value
                    for name, value in cand.breakdown.as_dict().items()
                    if name != "total"
                },
            }
        )
    for v in result.verified:
        rec: dict[str, Any] = {
            "record": "plan_verified",
            **_axes_fields(v.candidate.layout),
            "strategy": v.candidate.strategy,
            "predicted_step_time": v.predicted_step_time,
            "measured_step_time": v.measured_step_time,
            "relative_error": v.relative_error,
        }
        if v.calibrated_step_time is not None:
            rec["calibrated_step_time"] = v.calibrated_step_time
            rec["calibrated_relative_error"] = v.calibrated_relative_error
        records.append(rec)
    if result.calibration is not None:
        cal = result.calibration
        records.append(
            {
                "record": "plan_calibration",
                "efficiency": cal.efficiency,
                "predicted_step_time": cal.predicted_step_time,
                "measured_step_time": cal.measured_step_time,
                "relative_error": cal.relative_error,
            }
        )
    for rej in result.rejected:
        records.append(
            {
                "record": "plan_rejected",
                **_axes_fields(rej.layout),
                "reason": rej.reason,
            }
        )
    return records


def write_plan_records(result: PlanResult, path: str | Path) -> None:
    """Write the planner's typed records as JSONL (stable key order)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in plan_records(result):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _section_planner(result: PlanResult) -> list[str]:
    cfg = result.config
    rows = [
        ("model", cfg.model.name),
        ("nodes", cfg.num_nodes),
        ("cluster", cfg.cluster),
        ("micro_batch", cfg.micro_batch),
        ("seq_len", cfg.seq_len),
        ("num_microbatches", cfg.num_microbatches),
        ("layouts enumerated", len(result.candidates) + len(result.rejected)),
        ("launchable candidates", len(result.candidates)),
        ("rejected layouts", len(result.rejected)),
    ]
    if result.candidates:
        rows.append(("best layout", _axes_str(result.best.layout)))
    med = result.median_relative_error
    if med is not None:
        rows.append(("median model-vs-measured error", med))
    return ["## Planner", ""] + _kv_table(rows) + [""]


def _candidate_table(
    candidates, heading: str, note: str | None = None
) -> list[str]:
    if not candidates:
        return []
    lines = [heading, ""]
    if note:
        lines += [note, ""]
    lines += [
        "| rank | layout | strategy | step time (s) | tokens/s | compute (s) | comm (s) | bubble (s) |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for rank, cand in enumerate(candidates[:_MAX_ROWS], start=1):
        bd = cand.breakdown
        lines.append(
            f"| {rank} | {_axes_str(cand.layout)} | {cand.strategy} | "
            f"{_fmt(cand.predicted_step_time)} | {_fmt(cand.tokens_per_second)} | "
            f"{_fmt(bd.compute)} | {_fmt(bd.communication)} | "
            f"{_fmt(bd.pipeline_bubble)} |"
        )
    if len(candidates) > _MAX_ROWS:
        lines.append(f"| ... | and {len(candidates) - _MAX_ROWS} more | | | | | | |")
    lines.append("")
    return lines


def _section_verified(result: PlanResult) -> list[str]:
    if not result.verified:
        return []
    lines = [
        "## Verified candidates",
        "",
        "| layout | strategy | predicted (s) | measured (s) | error | calibrated (s) | cal. error |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for v in result.verified:
        if v.calibrated_step_time is not None:
            cal = _fmt(v.calibrated_step_time)
            cal_err = f"{v.calibrated_relative_error:.1%}"
        else:
            cal, cal_err = "-", "-"
        lines.append(
            f"| {_axes_str(v.candidate.layout)} | {v.candidate.strategy} | "
            f"{_fmt(v.predicted_step_time)} | {_fmt(v.measured_step_time)} | "
            f"{v.relative_error:.1%} | {cal} | {cal_err} |"
        )
    lines.append("")
    return lines


def _section_calibration(result: PlanResult) -> list[str]:
    cal = result.calibration
    if cal is None:
        return []
    rows = [
        ("fitted compute efficiency", cal.efficiency),
        ("anchor predicted step time (s)", cal.predicted_step_time),
        ("anchor measured step time (s)", cal.measured_step_time),
        ("anchor relative error", cal.relative_error),
    ]
    return ["## Calibration", ""] + _kv_table(rows) + [""]


def _section_rejected(result: PlanResult) -> list[str]:
    if not result.rejected:
        return []
    lines = [
        "## Rejected layouts",
        "",
        "| layout | reason |",
        "| --- | --- |",
    ]
    for rej in result.rejected[:_MAX_ROWS]:
        lines.append(f"| {_axes_str(rej.layout)} | {rej.reason} |")
    if len(result.rejected) > _MAX_ROWS:
        lines.append(f"| ... | and {len(result.rejected) - _MAX_ROWS} more |")
    lines.append("")
    return lines


def build_plan_report(result: PlanResult, title: str = "Plan report") -> str:
    """Render a planner result into one deterministic markdown report."""
    lines = [f"# {title}", ""]
    lines += _section_planner(result)
    lines += _candidate_table(result.candidates, "## Ranked candidates")
    lines += _section_verified(result)
    lines += _section_calibration(result)
    lines += _candidate_table(
        result.recalibrated,
        "## Ranking at fitted efficiency",
        note="The full candidate list re-priced with the calibrated machine.",
    )
    lines += _section_rejected(result)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def generate_plan_report(
    result: PlanResult,
    out_path: str | Path | None = None,
    title: str = "Plan report",
) -> str:
    """Render the plan report; also write it to ``out_path`` when given."""
    report = build_plan_report(result, title=title)
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(report)
    return report
