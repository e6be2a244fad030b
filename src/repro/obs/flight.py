"""Flight recorder: a bounded ring of recent per-rank activity.

At 96,000 nodes a failed run cannot afford full tracing, but the *last
few* operations of every rank are exactly what a post-mortem needs: who
was inside which collective when the fault hit, which rank had stopped
making progress before the deadlock, what the cache was doing when it
overflowed. The recorder keeps one fixed-size ring buffer per rank
(``collections.deque(maxlen=...)``), fed unconditionally by the engine at
every communication/compute record — appends are O(1) and the memory
bound is ``limit * ranks`` small tuples regardless of run length.

On any modelled failure the engine dumps the recorder onto the raised
exception (``exc.flight_dump``), so fault / deadlock / cache-overflow
post-mortems ship with the evidence attached. The
:class:`~repro.resilience.Supervisor` ingests these dumps into its
session recorder, shifted onto the session timeline.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any

from repro.errors import ConfigError

__all__ = ["FlightRecorder"]

#: Default ring depth per rank — enough to see a full training step's
#: collective sequence on the tiny worlds, small enough to be free.
DEFAULT_LIMIT = 64


class FlightRecorder:
    """Per-rank ring buffers of recent (op, t_start, t_end, nbytes) plus a
    ring of recent lifecycle notes (restart/backoff/evict/...)."""

    def __init__(self, limit: int = DEFAULT_LIMIT):
        if limit < 1:
            raise ConfigError(f"flight recorder limit must be >= 1, got {limit}")
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._rings: dict[int, deque] = {}
        self._notes: deque = deque(maxlen=self.limit)

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #

    def record(self, rank: int, op: str, t_start: float, t_end: float,
               nbytes: int = 0) -> None:
        """Append one operation interval to ``rank``'s ring."""
        ring = self._rings.get(rank)
        if ring is None:
            with self._lock:
                ring = self._rings.setdefault(rank, deque(maxlen=self.limit))
        ring.append((op, float(t_start), float(t_end), int(nbytes)))

    def note(self, kind: str, t: float = 0.0, **fields: Any) -> None:
        """Append one lifecycle note (shared ring, most recent kept)."""
        self._notes.append({"kind": kind, "t": float(t), **fields})

    # ------------------------------------------------------------------ #
    # Post-mortem export
    # ------------------------------------------------------------------ #

    def dump(self, phases: dict[str, float] | None = None) -> dict[str, Any]:
        """A deterministic plain-dict snapshot for post-mortem analysis.

        ``ranks`` maps rank -> most-recent-last op records; ``last_op``
        summarizes each rank's final recorded activity (the first thing a
        human looks at after a hang).
        """
        with self._lock:
            ranks = {
                r: [
                    {"op": op, "t_start": t0, "t_end": t1, "nbytes": nb}
                    for (op, t0, t1, nb) in self._rings[r]
                ]
                for r in sorted(self._rings)
            }
        last_op = {
            r: (events[-1]["op"] if events else None)
            for r, events in ranks.items()
        }
        return {
            "limit": self.limit,
            "ranks": ranks,
            "last_op": last_op,
            "notes": list(self._notes),
            "phases": dict(phases) if phases else {},
        }

    # ------------------------------------------------------------------ #
    # Session aggregation
    # ------------------------------------------------------------------ #

    def absorb(self, other: "FlightRecorder", clock_offset: float = 0.0) -> None:
        """Fold another recorder in, timestamps shifted by ``clock_offset``."""
        self.ingest(other.dump(), clock_offset=clock_offset)

    def ingest(self, dump: dict[str, Any], clock_offset: float = 0.0) -> None:
        """Fold a :meth:`dump` dict in (e.g. ``exc.flight_dump`` from a
        crashed launch), timestamps shifted onto this recorder's timeline."""
        for rank_str, events in dump.get("ranks", {}).items():
            rank = int(rank_str)
            for e in events:
                self.record(
                    rank,
                    e["op"],
                    e["t_start"] + clock_offset,
                    e["t_end"] + clock_offset,
                    e.get("nbytes", 0),
                )
        for n in dump.get("notes", []):
            fields = {k: v for k, v in n.items() if k not in ("kind", "t")}
            self.note(n["kind"], t=n.get("t", 0.0) + clock_offset, **fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(limit={self.limit}, ranks={len(self._rings)}, "
            f"notes={len(self._notes)})"
        )
