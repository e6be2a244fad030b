"""Span-based tracing: parent-child causality on the virtual clock.

The trace stream (:mod:`repro.simmpi.trace`) answers "what did each rank
do when"; the metric registry answers "how much, in total". Neither
answers the serving question "where did *this request's* latency go" —
that needs causal, per-request structure: a root span per request whose
children cover queue wait, admission, prefill, decode, every retry
attempt, every hedge. This module supplies that structure:

- :class:`Span` — one named interval (or instant) in virtual seconds,
  with a parent link and free-form attributes;
- :class:`Tracer` — an append-only span store with deterministic integer
  ids, tree navigation, session absorption (clock-offset folding, the
  same contract as :meth:`RunContext.absorb`) and a byte-stable JSON
  dump (``RunContext.write_chrome_trace`` draws the trees as a Chrome
  ``spans`` process);
- :func:`span_coverage` — the accounting invariant: the on-path children
  of a root span partition its duration into covered seconds plus
  *explicit* gaps, so every second of request latency is attributed.

Like the metric registry, the tracer follows the null-object pattern:
an unobserved :class:`~repro.simmpi.RunContext` carries
:data:`NULL_TRACER`, whose methods are empty — instrumented code never
branches, and tracing-off runs are bit-identical to pre-span builds.

All timestamps are *virtual* seconds (the modelled machine's clock), so
span trees are reproducible bit for bit across hosts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigError

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span_coverage",
]

#: Span kinds that never count toward a root's latency accounting —
#: they run *concurrently* with the critical path (a hedge races its
#: primary) rather than stacking onto it.
OFF_PATH_KINDS = frozenset({"hedge"})


@dataclass
class Span:
    """One causally-linked interval on the virtual timeline.

    ``t_end`` is None while the span is open; :meth:`Tracer.end` closes
    it. ``kind`` is a coarse category (``request`` / ``queue`` /
    ``prefill`` / ``decode`` / ``retry`` / ``hedge`` / ``autoscale`` /
    ``launch`` / ``backoff`` ...) used for filtering and for the
    latency-accounting rules; ``attrs`` carries everything else.
    """

    span_id: int
    name: str
    t_start: float
    t_end: float | None = None
    parent_id: int | None = None
    kind: str = "span"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Closed duration in virtual seconds (0.0 while still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    @property
    def closed(self) -> bool:
        return self.t_end is not None

    @property
    def on_path(self) -> bool:
        """Does this span count toward its root's latency accounting?"""
        return self.kind not in OFF_PATH_KINDS and not self.attrs.get("off_path", False)

    def record(self) -> dict[str, Any]:
        """Flat dict for the deterministic JSON dump (sorted attrs)."""
        rec: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
        }
        for key in sorted(self.attrs):
            rec[f"attr_{key}"] = self.attrs[key]
        return rec


class Tracer:
    """Append-only span store with deterministic ids and tree navigation.

    Ids are assigned in creation order, so two same-seed runs produce
    identical dumps. The tracer is driver-side bookkeeping (no locks
    needed: spans are recorded by the single supervising thread, never
    by rank threads).
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._children: dict[int, list[int]] = {}

    # -- recording ------------------------------------------------------ #

    def _parent_id(self, parent: "Span | int | None") -> int | None:
        if parent is None:
            return None
        pid = parent.span_id if isinstance(parent, Span) else int(parent)
        if not 0 <= pid < len(self._spans):
            raise ConfigError(f"unknown parent span id {pid}")
        return pid

    def begin(
        self,
        name: str,
        t: float,
        parent: "Span | int | None" = None,
        kind: str = "span",
        **attrs: Any,
    ) -> Span:
        """Open a span at virtual time ``t``; close it with :meth:`end`."""
        span = Span(
            span_id=len(self._spans),
            name=name,
            t_start=float(t),
            parent_id=self._parent_id(parent),
            kind=kind,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        if span.parent_id is not None:
            self._children.setdefault(span.parent_id, []).append(span.span_id)
        return span

    def end(self, span: Span, t: float, **attrs: Any) -> Span:
        """Close an open span at virtual time ``t`` (>= its start)."""
        if span.t_end is not None:
            raise ConfigError(f"span {span.span_id} ({span.name!r}) already closed")
        if t < span.t_start:
            raise ConfigError(
                f"span {span.name!r} cannot end at {t} before start {span.t_start}"
            )
        span.t_end = float(t)
        span.attrs.update(attrs)
        return span

    def add(
        self,
        name: str,
        t_start: float,
        t_end: float,
        parent: "Span | int | None" = None,
        kind: str = "span",
        **attrs: Any,
    ) -> Span:
        """Record an already-closed span (the common driver-side case)."""
        span = self.begin(name, t_start, parent=parent, kind=kind, **attrs)
        return self.end(span, t_end)

    def instant(
        self,
        name: str,
        t: float,
        parent: "Span | int | None" = None,
        kind: str = "span",
        **attrs: Any,
    ) -> Span:
        """A zero-duration marker span (admission decisions, scale events)."""
        return self.add(name, t, t, parent=parent, kind=kind, **attrs)

    # -- navigation ----------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    @property
    def spans(self) -> list[Span]:
        return list(self._spans)

    def roots(self) -> list[Span]:
        """Parentless spans, in creation order."""
        return [s for s in self._spans if s.parent_id is None]

    def children(self, span: "Span | int") -> list[Span]:
        """Direct children of a span, in creation order."""
        pid = span.span_id if isinstance(span, Span) else int(span)
        return [self._spans[i] for i in self._children.get(pid, [])]

    def subtree(self, span: "Span | int") -> list[Span]:
        """The span plus every descendant, depth-first in creation order."""
        root = self._spans[span.span_id if isinstance(span, Span) else int(span)]
        out = [root]
        for child in self.children(root):
            out.extend(self.subtree(child))
        return out

    def find(self, name: str | None = None, kind: str | None = None) -> list[Span]:
        """Spans matching a name and/or kind, in creation order."""
        return [
            s for s in self._spans
            if (name is None or s.name == name) and (kind is None or s.kind == kind)
        ]

    # -- session aggregation -------------------------------------------- #

    def absorb(self, other: "Tracer | NullTracer", clock_offset: float = 0.0) -> None:
        """Fold another tracer in, shifting timestamps by ``clock_offset``.

        Span ids are re-assigned past this tracer's current tail with
        parent links preserved, so absorbed trees stay intact.
        """
        if not getattr(other, "enabled", False):
            return
        base = len(self._spans)
        for span in other._spans:  # type: ignore[union-attr]
            clone = Span(
                span_id=base + span.span_id,
                name=span.name,
                t_start=span.t_start + clock_offset,
                t_end=None if span.t_end is None else span.t_end + clock_offset,
                parent_id=(
                    None if span.parent_id is None else base + span.parent_id
                ),
                kind=span.kind,
                attrs=dict(span.attrs),
            )
            self._spans.append(clone)
            if clone.parent_id is not None:
                self._children.setdefault(clone.parent_id, []).append(clone.span_id)

    # -- export --------------------------------------------------------- #

    def records(self) -> list[dict[str, Any]]:
        """One flat dict per span, in deterministic (creation) order."""
        return [s.record() for s in self._spans]

    def write_json(self, path: str | Path) -> Path:
        """Byte-stable JSON span dump (``{"spans": [...]}``)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.records()}, sort_keys=True))
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer({len(self._spans)} spans, {len(self.roots())} roots)"


class NullTracer:
    """The disabled tracer: every method is a no-op (shared instance).

    Instrumented drivers call ``context.spans.add(...)`` unconditionally;
    with tracing off the call costs an attribute lookup and an empty
    method — and records nothing, so tracing-off output is bit-identical
    to builds that predate spans.
    """

    enabled = False

    _NULL_SPAN = Span(span_id=-1, name="", t_start=0.0, t_end=0.0, kind="null")

    def begin(self, name: str, t: float, parent: Any = None,
              kind: str = "span", **attrs: Any) -> Span:
        return self._NULL_SPAN

    def end(self, span: Span, t: float, **attrs: Any) -> Span:
        return self._NULL_SPAN

    def add(self, name: str, t_start: float, t_end: float, parent: Any = None,
            kind: str = "span", **attrs: Any) -> Span:
        return self._NULL_SPAN

    def instant(self, name: str, t: float, parent: Any = None,
                kind: str = "span", **attrs: Any) -> Span:
        return self._NULL_SPAN

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Span]:
        return iter(())

    @property
    def spans(self) -> list[Span]:
        return []

    def roots(self) -> list[Span]:
        return []

    def children(self, span: Any) -> list[Span]:
        return []

    def subtree(self, span: Any) -> list[Span]:
        return []

    def absorb(self, other: Any, clock_offset: float = 0.0) -> None:
        pass

    def records(self) -> list[dict[str, Any]]:
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


def span_coverage(tracer: Tracer, root: Span | int) -> dict[str, Any]:
    """Account a root span's duration to its on-path children and gaps.

    The invariant every request span tree satisfies: the root's direct
    *on-path* children (queue / prefill / decode / retry — anything but
    concurrent hedges) are non-overlapping intervals inside the root, and

        sum(child durations) + sum(gap durations) == root duration

    with every gap listed explicitly as a ``(t_start, t_end)`` interval.
    Raises :class:`~repro.errors.ConfigError` when children overlap or
    escape the root — a malformed tree, not a measurement.
    """
    root_span = tracer._spans[root.span_id if isinstance(root, Span) else int(root)]
    if root_span.t_end is None:
        raise ConfigError(f"root span {root_span.span_id} is still open")
    kids = sorted(
        (s for s in tracer.children(root_span) if s.on_path and s.closed),
        key=lambda s: (s.t_start, s.span_id),
    )
    eps = 1e-12 * max(1.0, abs(root_span.t_end))
    cursor = root_span.t_start
    covered = 0.0
    gaps: list[tuple[float, float]] = []
    for child in kids:
        if child.t_start < cursor - eps or child.t_end > root_span.t_end + eps:
            raise ConfigError(
                f"span {child.span_id} ({child.name!r}) [{child.t_start}, "
                f"{child.t_end}] overlaps a sibling or escapes root "
                f"[{root_span.t_start}, {root_span.t_end}]"
            )
        if child.t_start > cursor + eps:
            gaps.append((cursor, child.t_start))
        covered += child.duration
        cursor = max(cursor, child.t_end)
    if root_span.t_end > cursor + eps:
        gaps.append((cursor, root_span.t_end))
    gap_seconds = sum(b - a for a, b in gaps)
    return {
        "root_seconds": root_span.duration,
        "span_seconds": covered,
        "gap_seconds": gap_seconds,
        "gaps": gaps,
        "children": len(kids),
    }
