"""Simulated MPI: thread-per-rank SPMD over the operations a run issues.

:class:`Comm` carries point-to-point messages, the collectives the
strategies and the serving engine call, and communicator splitting. The
runtime is functionally faithful for those and additionally maintains a
per-rank **virtual clock** advanced by a
:class:`~repro.network.NetworkModel`, so the same program yields both
correct results and topology-aware simulated timings.
"""

from repro.simmpi.comm import MIN, SUM, Comm
from repro.simmpi.context import RunContext
from repro.simmpi.engine import SpmdResult, run_spmd
from repro.simmpi.faults import FaultModel, FaultPlan
from repro.simmpi.hier import hierarchical_alltoall
from repro.simmpi.payload import clone_payload, payload_nbytes
from repro.simmpi.stats import TrafficStats
from repro.simmpi.trace import TraceEvent

__all__ = [
    "SUM",
    "MIN",
    "Comm",
    "RunContext",
    "SpmdResult",
    "run_spmd",
    "FaultModel",
    "FaultPlan",
    "hierarchical_alltoall",
    "TrafficStats",
    "TraceEvent",
    "clone_payload",
    "payload_nbytes",
]
