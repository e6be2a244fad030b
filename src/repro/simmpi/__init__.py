"""Simulated MPI: thread-per-rank SPMD with an mpi4py-style API.

The runtime is functionally faithful (messages, collectives, communicator
splitting) and additionally maintains a per-rank **virtual clock** advanced
by a :class:`~repro.network.NetworkModel`, so the same program yields both
correct results and topology-aware simulated timings.
"""

from repro.simmpi.comm import ANY_SOURCE, ANY_TAG, MAX, MIN, PROD, SUM, Comm
from repro.simmpi.context import RunContext
from repro.simmpi.engine import SpmdResult, run_spmd
from repro.simmpi.faults import FaultModel, FaultPlan, MessageFault
from repro.simmpi.hier import hierarchical_alltoall
from repro.simmpi.payload import clone_payload, payload_nbytes
from repro.simmpi.stats import TrafficStats
from repro.simmpi.trace import TraceEvent

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
    "Comm",
    "RunContext",
    "SpmdResult",
    "run_spmd",
    "FaultModel",
    "FaultPlan",
    "hierarchical_alltoall",
    "MessageFault",
    "TrafficStats",
    "TraceEvent",
    "clone_payload",
    "payload_nbytes",
]
