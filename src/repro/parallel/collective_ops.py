"""Differentiable collectives: autograd ops that communicate.

These wrap :class:`~repro.simmpi.Comm` collectives as autograd graph nodes
so that the backward pass *also* communicates (the adjoint pattern of each
collective), exactly like torch.distributed autograd functions:

* alltoall of token rows  ->  backward is the transposed alltoall;
* allreduce(sum)          ->  backward is allreduce(sum) of the gradient
  (identity per-rank when inputs were identical).

Because every rank executes a structurally identical program, the backward
collectives line up across ranks just like the forward ones.

The row exchange is written once, as the handle :class:`PendingAlltoallRows`
(issue at creation, differentiable output at ``wait()``); the blocking
:func:`alltoall_rows` is that handle issued through ``comm.alltoall`` and
waited on at once (DESIGN.md §8, "Blocking is issue-then-complete").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi import Comm
from repro.tensor import Tensor
from repro.tensor.tensor import _make

__all__ = [
    "alltoall_rows",
    "ialltoall_rows",
    "place_rows",
    "allreduce_sum",
    "copy_to_tp_region",
]


class PendingAlltoallRows:
    """An issued exchange of contiguous row blocks; ``wait()`` -> (rows, counts).

    ``send_counts[r]`` rows of ``x`` (M, D) go to rank r (blocks are
    consecutive in row order). The exchange is issued (and rendezvoused)
    at creation — by ``comm.ialltoall`` when ``nonblocking``, whose exposed
    network cost ``wait()`` charges net of compute overlapped through
    ``Comm.advance``; by ``comm.alltoall`` otherwise, which has charged it
    all already. ``wait()`` builds the differentiable output either way:
    the received rows ordered by source rank, and the per-source counts.

    Backward routes output gradients back with the transposed counts, so
    token gradients flow to the rank that owns the token. It is always a
    *blocking* alltoall — gradient values are identical either way, and
    by then there is no forward compute left to hide behind.
    """

    def __init__(self, x: Tensor, send_counts: Sequence[int], comm: Comm,
                 algorithm: str | None, nonblocking: bool):
        send_counts = [int(c) for c in send_counts]
        if len(send_counts) != comm.size:
            raise CommunicatorError(
                f"send_counts must have {comm.size} entries, got {len(send_counts)}"
            )
        if sum(send_counts) != x.shape[0]:
            raise CommunicatorError(
                f"send_counts sum {sum(send_counts)} != rows {x.shape[0]}"
            )
        self._x = x
        self._send_counts = send_counts
        self._comm = comm
        self._algorithm = algorithm
        offsets = np.concatenate([[0], np.cumsum(send_counts)])
        parts = [x.data[offsets[r]: offsets[r + 1]] for r in range(comm.size)]
        issue = comm.ialltoall if nonblocking else comm.alltoall
        #: The received parts (blocking) or the request that yields them.
        self._received = issue(parts, algorithm=algorithm)
        self._nonblocking = nonblocking
        self._result: tuple[Tensor, list[int]] | None = None

    def wait(self) -> tuple[Tensor, list[int]]:
        if self._result is not None:
            return self._result
        x, comm = self._x, self._comm
        send_counts, algorithm = self._send_counts, self._algorithm
        received = self._received.wait() if self._nonblocking else self._received
        recv_counts = [int(p.shape[0]) for p in received]
        if sum(recv_counts):
            data = np.concatenate(received, axis=0)
        else:
            data = np.empty((0,) + x.shape[1:], dtype=x.data.dtype)
        recv_offsets = np.concatenate([[0], np.cumsum(recv_counts)])

        def backward(g: np.ndarray) -> Sequence[np.ndarray]:
            gparts = [g[recv_offsets[r]: recv_offsets[r + 1]] for r in range(comm.size)]
            back = comm.alltoall(gparts, algorithm=algorithm)
            if sum(send_counts):
                gx = np.concatenate(back, axis=0)
            else:
                gx = np.empty((0,) + g.shape[1:], dtype=g.dtype)
            return (gx,)

        out = _make(data, x.dtype, (x,), backward, exact=True)
        self._result = (out, recv_counts)
        return self._result


def alltoall_rows(
    x: Tensor,
    send_counts: Sequence[int],
    comm: Comm,
    algorithm: str | None = None,
) -> tuple[Tensor, list[int]]:
    """Exchange contiguous row blocks of ``x`` (M, D) between ranks:
    a blocking :class:`PendingAlltoallRows`, waited on at once."""
    return PendingAlltoallRows(x, send_counts, comm, algorithm, nonblocking=False).wait()


def ialltoall_rows(
    x: Tensor,
    send_counts: Sequence[int],
    comm: Comm,
    algorithm: str | None = None,
) -> PendingAlltoallRows:
    """Nonblocking :func:`alltoall_rows`; returns the wait()-able handle.

    Every rank must issue its nonblocking exchanges in the same order.
    This is the primitive the chunked MoE dispatch pipelines expert
    matmuls against.
    """
    return PendingAlltoallRows(x, send_counts, comm, algorithm, nonblocking=True)


def place_rows(
    chunks: Sequence[Tensor],
    index_lists: Sequence[np.ndarray],
    total_rows: int,
) -> Tensor:
    """Reassemble disjoint row chunks into one (total_rows, D) tensor.

    ``chunks[c]`` lands at row indices ``index_lists[c]``; the index lists
    must partition ``range(total_rows)``. Forward is pure placement and
    backward pure slicing — no arithmetic — so a chunked pipeline that
    splits rows and reassembles them is bit-exact against the unsplit
    path in both directions.
    """
    if len(chunks) != len(index_lists):
        raise CommunicatorError(
            f"{len(chunks)} chunks but {len(index_lists)} index lists"
        )
    if not chunks:
        raise CommunicatorError("place_rows() of an empty chunk list")
    data = np.zeros((total_rows,) + chunks[0].shape[1:], dtype=chunks[0].data.dtype)
    for t, idx in zip(chunks, index_lists):
        data[idx] = t.data

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return tuple(g[idx] for idx in index_lists)

    return _make(data, chunks[0].dtype, tuple(chunks), backward,
                 exact=all(t.dtype == chunks[0].dtype for t in chunks))


def allreduce_sum(x: Tensor, comm: Comm, algorithm: str | None = None) -> Tensor:
    """Sum ``x`` across ranks; every rank returns the total.

    Autograd convention: the SPMD program computes one *logical* loss
    (each rank evaluates the same replicated value), so the adjoint of
    ``y = sum_r x_r`` is the identity — each rank's shard receives the
    (already replicated) output gradient with no further communication.
    This is the Megatron "g" operator used by tensor parallelism
    (:mod:`repro.parallel.tp`): allreduce forward, passthrough backward.
    """
    data = comm.allreduce(x.data, algorithm=algorithm)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (g,)

    return _make(data, x.dtype, (x,), backward)


def copy_to_tp_region(x: Tensor, comm: Comm, algorithm: str | None = None) -> Tensor:
    """Megatron's "f" operator: identity forward, allreduce backward.

    Marks the point where a replicated activation enters a
    tensor-parallel region: each shard consumes the same input, so the
    input's gradient is the *sum* of the shards' contributions.
    The dual of :func:`allreduce_sum` (the "g" operator).
    """
    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (comm.allreduce(g, algorithm=algorithm),)

    return _make(x.data, x.dtype, (x,), backward, exact=True)
