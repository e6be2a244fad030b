"""Virtual-time event tracing for SPMD runs.

When enabled, every communication operation records a (rank, op, t_start,
t_end, nbytes) interval in *virtual* time — the timeline of the modelled
machine, not of the host Python process.
:meth:`repro.simmpi.RunContext.write_chrome_trace` exports the stream as
Chrome-tracing JSON (`chrome://tracing` / Perfetto) to see the
communication structure of a training step: alltoall waves, allreduce
barriers, pipeline bubbles.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One operation interval on one rank (virtual seconds)."""

    rank: int
    op: str
    t_start: float
    t_end: float
    nbytes: int = 0
    #: Seconds of this op's network cost hidden behind compute (nonzero
    #: only for nonblocking ops whose wait charged less than their cost).
    hidden: float = 0.0
    #: Which simulated world the rank belongs to: a fleet's replica index,
    #: stamped by :meth:`~repro.simmpi.RunContext.absorb`; 0 for one world.
    world: int = 0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start
