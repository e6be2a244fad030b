"""Data parallelism: gradient synchronization and parameter broadcast.

Gradients of replicated parameters are flattened into a single bucket and
allreduced in one collective (the bucketing every production DP
implementation performs — it converts many latency-bound allreduces into
one bandwidth-bound one, which is also what the hierarchical-allreduce
ablation F4 measures). The bucket is float16 on the wire when every
parameter is fp16 (2 bytes a gradient, summed in float32: DESIGN.md §8,
"The wire carries the modelled dtype") and float32 otherwise.
:class:`PendingGradAllreduce` is that sync written once — flatten, issue
the bucket(s), average and unflatten at ``wait()`` — with one blocking
bucket or several nonblocking, overlappable ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi import Comm
from repro.tensor import Tensor, quantize, to_wire
from repro.tensor.buckets import buckets

__all__ = [
    "PendingGradAllreduce",
    "broadcast_parameters",
    "flatten_grads",
    "unflatten_grads",
    "flatten_params",
    "assign_flat_params",
    "wire_dtype",
]


def flatten_grads(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate all gradients into one fp32 vector (zeros when absent)."""
    chunks = [np.zeros(p.size, dtype=np.float32) if p.grad is None else p.grad
              for p in params]
    if not chunks:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate(chunks, axis=None, dtype=np.float32)


def _assign_flat(params: Sequence[Tensor], flat: np.ndarray, attr: str) -> None:
    """Set each parameter's ``attr`` to its slice of ``flat``, rounded to its
    dtype: one rounding per bucket (:func:`~repro.tensor.buckets.buckets`),
    each parameter getting a view of its bucket's rounded array."""
    runs = buckets(params)
    expected = sum(bounds[-1] for _, bounds in runs)
    if flat.shape != (expected,):
        raise CommunicatorError(
            f"flat {attr} vector has shape {flat.shape}, expected ({expected},)"
        )
    offset = 0
    for run, bounds in runs:
        values = quantize(flat[offset: offset + bounds[-1]], run[0].dtype)
        for p, lo, hi in zip(run, bounds, bounds[1:]):
            setattr(p, attr, values[lo:hi].reshape(p.shape))
        offset += bounds[-1]


def wire_dtype(params: Sequence[Tensor]) -> str:
    """The dtype a flat vector of ``params`` crosses the wire in: fp16 when
    every parameter is fp16 (:func:`~repro.tensor.to_wire`), else fp32."""
    return "fp16" if all(p.dtype.name == "fp16" for p in params) else "fp32"


def unflatten_grads(params: Sequence[Tensor], flat: np.ndarray) -> None:
    """Write a flat gradient vector back into per-parameter ``.grad``."""
    _assign_flat(params, flat, "grad")


def flatten_params(params: Sequence[Tensor]) -> np.ndarray:
    """Concatenate all (at least one) parameter values into one fp32 vector."""
    return np.concatenate([p.data for p in params], axis=None, dtype=np.float32)


def assign_flat_params(params: Sequence[Tensor], flat: np.ndarray) -> None:
    """Write a flat fp32 vector into per-parameter ``.data`` (re-quantized)."""
    _assign_flat(params, flat, "data")


class PendingGradAllreduce:
    """An issued gradient sync of ``params`` over ``comm``; ``wait()`` -> bytes.

    The flat gradient vector — float16 when every parameter is fp16, whose
    gradients are on the fp16 grid, else float32 — is split into
    ``num_buckets`` contiguous buckets, each issued (and rendezvoused) at
    creation as one collective: ``comm.iallreduce`` when ``nonblocking`` —
    compute advanced via ``Comm.advance`` before ``wait()`` is credited
    against every in-flight bucket, so the sync overlaps (modelled) backward
    compute on the virtual clock — else ``comm.allreduce``, which has charged
    its cost already. Either way the sum comes back float32 (simmpi
    accumulates float16 payloads in float32). ``wait()`` completes the
    buckets, writes their average back into per-parameter ``.grad`` and
    returns the bucket bytes moved per rank. Element-wise bucket sums
    concatenate to exactly the whole-vector sum, so every bucket count gives
    the same gradients bit for bit.
    """

    def __init__(self, comm: Comm, params: Sequence[Tensor],
                 algorithm: str | None, num_buckets: int, nonblocking: bool):
        self._comm = comm
        self._params = params
        self._nonblocking = nonblocking
        self._parts: list = []
        self._nbytes = 0
        if comm.size == 1:  # nothing to issue, grads stay untouched
            return
        flat = to_wire(flatten_grads(params), wire_dtype(params))
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
            unflatten_grads(self._params, np.concatenate(parts) / self._comm.size)
        return self._nbytes


def broadcast_parameters(comm: Comm, params: Sequence[Tensor]) -> None:
    """Make every rank's parameters bit-identical to rank 0's.

    Called once at startup so replicated parameters start in sync (the
    invariant DP training preserves thereafter).
    """
    if comm.size == 1:
        return
    if not params:
        comm.bcast(None)
        return
    assign_flat_params(params, comm.bcast(flatten_params(params)))
