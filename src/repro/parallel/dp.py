"""Data parallelism: gradient synchronization and parameter broadcast.

Gradients of replicated parameters are flattened into a single fp32 bucket
and allreduced in one collective (the bucketing every production DP
implementation performs — it converts many latency-bound allreduces into
one bandwidth-bound one, which is also what the hierarchical-allreduce
ablation F4 measures). :class:`PendingGradAllreduce` is that sync written
once — flatten, issue the bucket(s), average and unflatten at ``wait()`` —
with one blocking bucket or several nonblocking, overlappable ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi import Comm
from repro.tensor import Tensor, quantize

__all__ = [
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


class PendingGradAllreduce:
    """An issued gradient sync of ``params`` over ``comm``; ``wait()`` -> bytes.

    The flat fp32 gradient vector is split into ``num_buckets`` contiguous
    buckets, each issued (and rendezvoused) at creation as one collective:
    ``comm.iallreduce`` when ``nonblocking`` — compute advanced via
    ``Comm.advance`` before ``wait()`` is credited against every in-flight
    bucket, so the sync overlaps (modelled) backward compute on the virtual
    clock — else ``comm.allreduce``, which has charged its cost already.
    ``wait()`` completes the buckets, writes their sum (or average) back
    into per-parameter ``.grad`` and returns the fp32 bucket bytes moved per
    rank. Element-wise bucket sums concatenate to exactly the whole-vector
    sum, so every bucket count gives the same gradients bit for bit.
    """

    def __init__(self, comm: Comm, params: Sequence[Tensor], average: bool,
                 algorithm: str | None, num_buckets: int, nonblocking: bool):
        self._comm = comm
        self._params = params
        self._average = average
        self._nonblocking = nonblocking
        self._parts: list = []
        self._nbytes = 0
        if comm.size == 1:  # nothing to issue, grads stay untouched
            return
        flat = flatten_grads(params)
        self._nbytes = int(flat.nbytes)
        reduce = comm.iallreduce if nonblocking else comm.allreduce
        #: Per bucket: the reduction (blocking) or the request yielding it.
        self._parts = [
            reduce(bucket, algorithm=algorithm)
            for bucket in np.array_split(flat, min(num_buckets, max(1, flat.size)))
        ]

    def wait(self) -> int:
        if self._parts:
            parts = [p.wait() for p in self._parts] if self._nonblocking else self._parts
            self._parts = []  # a second wait() must not average again
            total = np.concatenate(parts)
            if self._average:
                total = total / self._comm.size
            unflatten_grads(self._params, total)
        return self._nbytes


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
