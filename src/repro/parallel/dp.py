"""Data parallelism: gradient synchronization and parameter broadcast.

Gradients of replicated parameters are flattened into a single fp32 bucket
and allreduced in one collective (the bucketing every production DP
implementation performs — it converts many latency-bound allreduces into
one bandwidth-bound one, which is also what the hierarchical-allreduce
ablation F4 measures).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi import Comm
from repro.tensor import Tensor, quantize

__all__ = [
    "allreduce_gradients",
    "iallreduce_gradients",
    "PendingGradAllreduce",
    "broadcast_parameters",
    "flatten_grads",
    "unflatten_grads",
    "flatten_params",
    "assign_flat_params",
]


def flatten_grads(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate all gradients into one fp32 vector (zeros when absent)."""
    chunks = []
    for p in params:
        if p.grad is None:
            chunks.append(np.zeros(p.size, dtype=np.float32))
        else:
            chunks.append(p.grad.astype(np.float32).reshape(-1))
    if not chunks:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate(chunks)


def _assign_flat(params: Sequence[Tensor], flat: np.ndarray, attr: str) -> None:
    expected = sum(p.size for p in params)
    if flat.shape != (expected,):
        raise CommunicatorError(
            f"flat {attr} vector has shape {flat.shape}, expected ({expected},)"
        )
    offset = 0
    for p in params:
        n = p.size
        setattr(p, attr, quantize(flat[offset: offset + n].reshape(p.shape), p.dtype))
        offset += n


def unflatten_grads(params: Sequence[Tensor], flat: np.ndarray) -> None:
    """Write a flat gradient vector back into per-parameter ``.grad``."""
    _assign_flat(params, flat, "grad")


def flatten_params(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate all (at least one) parameter values into one fp32 vector."""
    return np.concatenate([p.data.astype(np.float32).reshape(-1) for p in params])


def assign_flat_params(params: Sequence[Tensor], flat: np.ndarray) -> None:
    """Write a flat fp32 vector into per-parameter ``.data`` (re-quantized)."""
    _assign_flat(params, flat, "data")


def allreduce_gradients(
    comm: Comm,
    params: Sequence[Tensor],
    average: bool = True,
    algorithm: str | None = None,
) -> int:
    """Sum (or average) gradients of ``params`` across ``comm``.

    Returns the number of bytes moved per rank (fp32 bucket size), which
    callers can use for traffic accounting.
    """
    if comm.size == 1:
        return 0
    flat = flatten_grads(params)
    total = comm.allreduce(flat, algorithm=algorithm)
    if average:
        total = total / comm.size
    unflatten_grads(params, total)
    return int(flat.nbytes)


class PendingGradAllreduce:
    """Handle from :func:`iallreduce_gradients`; ``wait()`` -> bytes moved.

    The bucketed allreduces were issued (and rendezvoused) at creation;
    ``wait()`` charges the exposed network cost of each bucket, reduces the
    buckets back into per-parameter ``.grad``, and returns the fp32 bucket
    bytes per rank. Element-wise bucket sums concatenate to exactly the
    whole-vector sum, so the result is numerically identical to
    :func:`allreduce_gradients`.
    """

    def __init__(self, comm: Comm, params: Sequence[Tensor], average: bool,
                 reqs: list, nbytes: int):
        self._comm = comm
        self._params = params
        self._average = average
        self._reqs = reqs
        self._nbytes = nbytes
        self._done = False

    def wait(self) -> int:
        if self._done:
            return self._nbytes
        self._done = True
        if not self._reqs:  # size-1 comm: nothing was issued, grads untouched
            return self._nbytes
        total = np.concatenate([req.wait() for req in self._reqs])
        if self._average:
            total = total / self._comm.size
        unflatten_grads(self._params, total)
        return self._nbytes


def iallreduce_gradients(
    comm: Comm,
    params: Sequence[Tensor],
    average: bool = True,
    algorithm: str | None = None,
    num_buckets: int = 1,
) -> PendingGradAllreduce:
    """Nonblocking :func:`allreduce_gradients`; returns a wait()-able handle.

    The flat fp32 gradient vector is split into ``num_buckets`` contiguous
    buckets, each issued as one ``comm.iallreduce`` — compute advanced via
    ``Comm.advance`` between issue and ``wait()`` is credited against every
    in-flight bucket, so gradient sync overlaps with (modelled) backward
    compute on the virtual clock.
    """
    if num_buckets < 1:
        raise CommunicatorError(f"num_buckets must be >= 1, got {num_buckets}")
    if comm.size == 1:
        return PendingGradAllreduce(comm, params, average, [], 0)
    flat = flatten_grads(params)
    buckets = np.array_split(flat, min(num_buckets, max(1, flat.size)))
    reqs = [comm.iallreduce(b, algorithm=algorithm) for b in buckets]
    return PendingGradAllreduce(comm, params, average, reqs, int(flat.nbytes))


def broadcast_parameters(comm: Comm, params: Sequence[Tensor], root: int = 0) -> None:
    """Make every rank's parameters bit-identical to ``root``'s.

    Called once at startup so replicated parameters start in sync (the
    invariant DP training preserves thereafter).
    """
    if comm.size == 1:
        return
    if not params:
        comm.bcast(None, root=root)
        return
    assign_flat_params(params, comm.bcast(flatten_params(params), root=root))
