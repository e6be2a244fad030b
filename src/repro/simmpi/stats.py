"""Traffic accounting for simulated MPI runs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["TrafficStats"]


@dataclass
class TrafficStats:
    """Counters accumulated by the engine during one SPMD run.

    All byte figures are *logical payload* bytes (what the application
    moved), not modelled wire bytes; the virtual clock already accounts for
    protocol efficiency through the link model.

    The per-op counters are :class:`collections.Counter` instances, and
    :meth:`summary` emits every key (top-level and nested) in sorted order,
    so two logged runs diff cleanly line-for-line.
    """

    p2p_messages: int = 0
    p2p_bytes: int = 0
    collective_calls: Counter[str] = field(default_factory=Counter)
    collective_bytes: Counter[str] = field(default_factory=Counter)
    #: Per-op virtual seconds of nonblocking comm hidden behind compute
    #: (and the exposed remainder), recorded from world rank 0's thread
    #: only so float accumulation order is deterministic.
    overlapped_seconds: Counter[str] = field(default_factory=Counter)
    exposed_seconds: Counter[str] = field(default_factory=Counter)

    def record_p2p(self, nbytes: int) -> None:
        self.p2p_messages += 1
        self.p2p_bytes += nbytes

    def record_collective(self, op: str, nbytes: int) -> None:
        self.collective_calls[op] += 1
        self.collective_bytes[op] += nbytes

    def record_overlap(self, op: str, overlapped: float, exposed: float) -> None:
        """Account one nonblocking op's hidden-vs-exposed split."""
        self.overlapped_seconds[op] += overlapped
        self.exposed_seconds[op] += exposed

    @property
    def total_bytes(self) -> int:
        return self.p2p_bytes + sum(self.collective_bytes.values())

    def merge(self, other: "TrafficStats") -> None:
        """Fold another run's counters into this one.

        Recovery drivers use this to account a whole multi-launch session
        (including crashed attempts) under one aggregate.
        """
        self.p2p_messages += other.p2p_messages
        self.p2p_bytes += other.p2p_bytes
        self.collective_calls.update(other.collective_calls)
        self.collective_bytes.update(other.collective_bytes)
        self.overlapped_seconds.update(other.overlapped_seconds)
        self.exposed_seconds.update(other.exposed_seconds)

    def summary(self) -> dict[str, object]:
        """A plain-dict snapshot convenient for logging.

        Nested per-op dicts are key-sorted so serialized
        summaries are deterministic across runs.
        """
        return {
            "collective_bytes": {k: self.collective_bytes[k]
                                 for k in sorted(self.collective_bytes)},
            "collective_calls": {k: self.collective_calls[k]
                                 for k in sorted(self.collective_calls)},
            "exposed_seconds": {k: self.exposed_seconds[k]
                                for k in sorted(self.exposed_seconds)},
            "overlapped_seconds": {k: self.overlapped_seconds[k]
                                   for k in sorted(self.overlapped_seconds)},
            "p2p_bytes": self.p2p_bytes,
            "p2p_messages": self.p2p_messages,
            "total_bytes": self.total_bytes,
        }
