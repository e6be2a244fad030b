"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc. still
propagate).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration object was supplied."""


class CommunicatorError(ReproError):
    """Misuse of the simulated MPI layer (bad rank, dead communicator...)."""


class RankAbort(CommunicatorError):
    """Raised inside a rank thread to abort the whole SPMD program."""


class DeadlockError(CommunicatorError):
    """The SPMD engine detected that every live rank is blocked."""


class FaultInjected(CommunicatorError):
    """A fault-injection plan killed a message or a rank on purpose.

    ``rank`` identifies the world rank that was killed (None for message
    faults), so recovery drivers can attribute repeated failures to one
    node and exclude it from the next allocation.
    """

    def __init__(self, message: str = "", rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class TopologyError(ReproError):
    """An invalid network topology description or node id out of range."""


class ShapeError(ReproError):
    """Tensor shapes are incompatible for the requested operation."""


class AutogradError(ReproError):
    """A backward pass reached a node whose graph an earlier backward consumed."""


class DtypeError(ReproError):
    """An unsupported or inconsistent dtype was requested."""


class OverflowDetected(ReproError):
    """Mixed-precision training saw a non-finite gradient this step."""


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or mismatches the model."""


class CacheOverflow(ReproError):
    """A KV-cache write would exceed the cache's token capacity."""


class PartitionError(ReproError):
    """A dataset or parameter partition request cannot be satisfied."""
