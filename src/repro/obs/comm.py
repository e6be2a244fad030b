"""Comm profiler: per-collective, per-rank records with model utilization.

:class:`~repro.simmpi.stats.TrafficStats` answers "how many bytes moved";
this profiler answers the next question — *how well* they moved. From the
run's trace stream it aggregates, per (op, rank): call count, payload
bytes, and recorded virtual seconds, then re-prices each collective
through the run's :class:`~repro.network.costmodel.NetworkModel` to get a
``model_seconds`` floor. ``utilization = model_seconds / seconds`` — the
recorded interval starts at the rank's *arrival* at the collective, so a
utilization below 1.0 is rendezvous wait: arrival skew, straggler
experts, pipeline bubbles. That makes the gap between the two columns the
direct, per-op measurement of BaGuaLu's load-balance story.

Without a trace the profiler degrades to the ``TrafficStats`` per-op
aggregates (calls + bytes, no timing), so ``report`` always has a comm
table to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.simmpi.comm import collective_seconds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.costmodel import NetworkModel
    from repro.simmpi.context import RunContext

__all__ = ["CommRecord", "CommProfile", "profile_comm"]


@dataclass(frozen=True)
class CommRecord:
    """Aggregate of one (op, rank) pair. ``rank`` is None for the
    untraced TrafficStats fallback (per-op totals only)."""

    op: str
    rank: int | None
    calls: int
    nbytes: int
    #: Recorded virtual seconds inside the op (includes rendezvous wait).
    #: For nonblocking ops this is the *exposed* cost — what actually
    #: stalled the rank at ``wait()``.
    seconds: float
    #: Cost-model seconds for the same calls (None when unpriceable).
    model_seconds: float | None
    #: Seconds of network cost hidden behind compute (nonblocking ops).
    hidden_seconds: float = 0.0

    @property
    def bandwidth(self) -> float:
        """Achieved bytes / recorded second (0 when untimed)."""
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0

    @property
    def utilization(self) -> float | None:
        """model_seconds / seconds — <1.0 means time lost to skew/wait.

        >1.0 means the calls actually ran on sub-communicators smaller
        than the assumed member set (every rank seen in the trace).
        """
        if self.model_seconds is None or self.seconds <= 0:
            return None
        return self.model_seconds / self.seconds


class CommProfile:
    """Deterministically ordered list of :class:`CommRecord`."""

    def __init__(self, records: list[CommRecord], traced: bool):
        self.traced = traced
        self._records = sorted(
            records, key=lambda r: (r.op, -1 if r.rank is None else r.rank)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def per_op(self) -> list[CommRecord]:
        """Collapse ranks: one record per op (seconds = max over ranks,
        since ranks run concurrently; bytes/calls summed)."""
        by_op: dict[str, list[CommRecord]] = {}
        for r in self._records:
            by_op.setdefault(r.op, []).append(r)
        out = []
        for op in sorted(by_op):
            group = by_op[op]
            models = [r.model_seconds for r in group if r.model_seconds is not None]
            out.append(
                CommRecord(
                    op=op,
                    rank=None,
                    calls=max(r.calls for r in group),
                    nbytes=sum(r.nbytes for r in group),
                    seconds=max(r.seconds for r in group),
                    model_seconds=max(models) if models else None,
                    hidden_seconds=max(r.hidden_seconds for r in group),
                )
            )
        return out

    def records(self) -> list[dict[str, Any]]:
        """Flat per-(op, rank) dicts for a JSONL sink."""
        return [
            {
                "op": r.op,
                "rank": -1 if r.rank is None else r.rank,
                "calls": r.calls,
                "nbytes": r.nbytes,
                "seconds": r.seconds,
                "bandwidth": r.bandwidth,
                "model_seconds": -1.0 if r.model_seconds is None else r.model_seconds,
                "utilization": -1.0 if r.utilization is None else r.utilization,
                "hidden_seconds": r.hidden_seconds,
            }
            for r in self._records
        ]

    def format_table(self) -> str:
        """Fixed-width per-op table (deterministic, report-ready)."""
        header = (
            f"{'op':<16} {'calls':>7} {'MiB':>10} {'seconds':>10} "
            f"{'GiB/s':>8} {'model_s':>10} {'util':>6} {'hidden_s':>10}"
        )
        lines = [header, "-" * len(header)]
        for r in self.per_op():
            model = f"{r.model_seconds:10.4f}" if r.model_seconds is not None else f"{'-':>10}"
            util = f"{r.utilization:6.2f}" if r.utilization is not None else f"{'-':>6}"
            lines.append(
                f"{r.op:<16} {r.calls:>7} {r.nbytes / 2**20:>10.3f} "
                f"{r.seconds:>10.4f} {r.bandwidth / 2**30:>8.3f} {model} {util} "
                f"{r.hidden_seconds:>10.4f}"
            )
        return "\n".join(lines)


def profile_comm(
    context: "RunContext",
    network: "NetworkModel | None" = None,
) -> CommProfile:
    """Build a :class:`CommProfile` from a run's context.

    With a trace, records are per (op, rank) with recorded virtual time
    and (given ``network``) cost-model utilization, priced over every rank
    seen in the trace. Without a trace, falls back to the TrafficStats
    per-op aggregates.
    """
    if context.trace_events is not None:
        buckets: dict[tuple[str, int], list] = {}
        ranks = set()
        for e in context.trace_events:
            ranks.add(e.rank)
            buckets.setdefault((e.op, e.rank), []).append(e)
        group = sorted(ranks)
        records = []
        for (op, rank), events in buckets.items():
            # Re-priced from the table ``Comm`` itself issues from; ops it
            # does not list (compute, p2p) and 1-rank groups stay unpriced.
            model: float | None = None
            if network is not None and len(group) >= 2:
                costs = [collective_seconds(network, op, e.nbytes, group) for e in events]
                if None not in costs:
                    model = float(sum(costs))
            records.append(
                CommRecord(
                    op=op,
                    rank=rank,
                    calls=len(events),
                    nbytes=sum(e.nbytes for e in events),
                    seconds=sum(e.t_end - e.t_start for e in events),
                    model_seconds=model,
                    hidden_seconds=sum(e.hidden for e in events),
                )
            )
        return CommProfile(records, traced=True)

    # Untraced fallback: per-op totals from TrafficStats.
    stats = context.stats
    records = [
        CommRecord(
            op=op,
            rank=None,
            calls=int(stats.collective_calls[op]),
            nbytes=int(stats.collective_bytes[op]),
            seconds=float(stats.exposed_seconds[op]),
            model_seconds=None,
            hidden_seconds=float(stats.overlapped_seconds[op]),
        )
        for op in sorted(stats.collective_calls)
    ]
    if stats.p2p_messages:
        records.append(
            CommRecord(
                op="p2p",
                rank=None,
                calls=stats.p2p_messages,
                nbytes=stats.p2p_bytes,
                seconds=0.0,
                model_seconds=None,
            )
        )
    return CommProfile(records, traced=False)
