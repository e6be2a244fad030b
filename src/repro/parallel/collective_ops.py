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
(``issue(c)`` per chunk, one differentiable receive tensor filled by
``wait(c)``); the blocking exchange is its one-chunk case, issued through
``comm.alltoall`` and complete at once (DESIGN.md §8, "Blocking is
issue-then-complete"). The forward is pipelined per chunk; the backward is
one exchange per direction, whatever the chunk count.

What crosses the wire is the modelled dtype (DESIGN.md §8, "The wire carries
the modelled dtype"): the forward rows of an fp16 tensor and the "g"
operator's forward travel as 2-byte float16 (:func:`~repro.tensor.to_wire`).
Gradients stay float32 on the wire — the emulation computes activation
gradients at fp32 precision, so they are not on the fp16 grid.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.simmpi import Comm
from repro.tensor import Tensor, to_wire
from repro.tensor.tensor import _make

__all__ = [
    "PendingAlltoallRows",
    "allreduce_sum",
    "copy_to_tp_region",
]


class PendingAlltoallRows:
    """The row exchange, in chunks: ``issue(c, x)`` per chunk, ``wait(c)`` ->
    the one differentiable receive tensor.

    Chunk ``c`` sends ``send_counts[c][r]`` rows to rank r and receives
    ``recv_counts[c][s]`` rows from rank s (both known before the exchange:
    a mismatch on arrival is an error). Both sides of the exchange have one
    *whole* layout: ordered by rank, and by chunk within each rank — the
    layout of the one-chunk exchange. ``issue(c, x)`` sends chunk ``c``'s
    blocks either from ``x`` in that whole layout (the expert dispatch sends
    every chunk from the expert-sorted rows) or from ``x`` holding chunk
    ``c``'s rows alone, ordered by destination (the combine sends each
    chunk's expert outputs). One chunk is issued through ``comm.alltoall``,
    complete as issued; more go through ``comm.ialltoall``, whose exposed
    network cost ``wait(c)`` charges net of compute overlapped through
    ``Comm.advance``. The blocks for other ranks go in ``x``'s wire format
    (float16 for fp16), and ``wait(c)`` widens them into the float32 receive
    tensor; the block a rank keeps never crosses the wire.

    The receive tensor is one autograd node over every tensor issued from,
    built by the first ``wait`` and filled chunk by chunk. Its backward is
    the whole exchange transposed — one *blocking* alltoall, whatever the
    chunk count: the backward has no forward compute left to hide behind,
    so chunking it would only pay the latency again. The forward is
    pipelined per chunk, the backward is one exchange per direction.
    """

    def __init__(self, send_counts: Sequence[Sequence[int]],
                 recv_counts: Sequence[Sequence[int]], comm: Comm,
                 algorithm: str | None, nonblocking: bool):
        # Plain ints: a decode step exchanges a handful of rows per layer,
        # where NumPy's per-call cost would outweigh the bookkeeping.
        send = [[int(n) for n in row] for row in send_counts]
        recv = [[int(n) for n in row] for row in recv_counts]
        if len(send) != len(recv) or any(
            len(row) != comm.size for row in send + recv
        ):
            raise CommunicatorError(
                f"send and receive counts must both be (chunks, {comm.size}), "
                f"got {len(send)} and {len(recv)} chunks"
            )
        self._send, self._recv = send, recv
        self._send_total = sum(map(sum, send))
        self._send_starts, self._recv_starts = _whole_starts(send), _whole_starts(recv)
        self._comm = comm
        self._algorithm = algorithm
        self._nonblocking = nonblocking
        self._sources: list[Tensor | None] = [None] * len(send)
        #: Per chunk: the received parts (blocking) or the request that yields them.
        self._in_flight: list = [None] * len(send)
        self._issued_from: tuple[Tensor, ...] = ()
        self._out: Tensor | None = None

    def issue(self, c: int, x: Tensor) -> None:
        """Send chunk ``c``'s blocks from ``x``: its own rows, or the whole."""
        counts = self._send[c]
        if x.shape[0] == sum(counts):
            starts = list(accumulate(counts[:-1], initial=0))
        elif x.shape[0] == self._send_total:
            starts = self._send_starts[c]
        else:
            raise CommunicatorError(
                f"chunk {c} sends {sum(counts)} of {self._send_total} rows, "
                f"but the tensor has {x.shape[0]}"
            )
        if self._out is not None and not any(x is p for p in self._issued_from):
            raise CommunicatorError(
                f"chunk {c} issued after the first wait() from a new tensor"
            )
        self._sources[c] = x
        me = self._comm.rank
        parts = [
            x.data[lo: lo + n] if r == me else to_wire(x.data[lo: lo + n], x.dtype)
            for r, (lo, n) in enumerate(zip(starts, counts))
        ]
        issue = self._comm.ialltoall if self._nonblocking else self._comm.alltoall
        self._in_flight[c] = issue(parts, algorithm=self._algorithm)

    def rows(self, c: int) -> np.ndarray:
        """Indices of chunk ``c``'s rows in the receive tensor, by source."""
        counts = self._recv[c]
        spans = (range(lo, lo + n) for lo, n in zip(self._recv_starts[c], counts))
        return np.fromiter(chain.from_iterable(spans), dtype=np.int64, count=sum(counts))

    def wait(self, c: int) -> Tensor:
        """Complete chunk ``c`` and return the receive tensor.

        The tensor is allocated whole by the first ``wait`` and filled here,
        one chunk at a time: the rows of a chunk not yet waited on are not
        written. Invariant: every reader of chunk ``c``'s rows runs after
        ``wait(c)``, and nothing reads a chunk before its ``wait``.
        """
        issued, self._in_flight[c] = self._in_flight[c], None
        if issued is None:
            raise CommunicatorError(f"chunk {c} is not in flight")
        received = issued.wait() if self._nonblocking else issued
        got = [len(part) for part in received]
        if got != self._recv[c]:
            raise CommunicatorError(
                f"chunk {c} received {got} rows per source, expected "
                f"{self._recv[c]} (alltoall transpose mismatch)"
            )
        out = self._out if self._out is not None else self._receive_node()
        for lo, part in zip(self._recv_starts[c], received):
            out.data[lo: lo + len(part)] = part
        return out

    def _receive_node(self) -> Tensor:
        """The (unfilled) receive tensor over every tensor issued from."""
        sources = self._sources
        self._issued_from = parents = tuple({id(x): x for x in sources if x is not None}.values())
        whole = len(parents) == 1
        if not whole and any(
            x is None or x.shape[0] != sum(counts) for x, counts in zip(sources, self._send)
        ):
            raise CommunicatorError(
                "every chunk must send from one tensor, or each from its own"
            )
        first = parents[0]
        if any(x.dtype != first.dtype for x in parents):
            raise CommunicatorError("the chunks' tensors differ in dtype")
        comm, algorithm, send = self._comm, self._algorithm, self._send
        per_rank = [sum(col) for col in zip(*self._recv)]
        rank_starts = list(accumulate(per_rank[:-1], initial=0))

        def backward(g: np.ndarray) -> Sequence[np.ndarray]:
            gparts = [g[lo: lo + n] for lo, n in zip(rank_starts, per_rank)]
            back = comm.alltoall(gparts, algorithm=algorithm)
            if whole:
                return (np.concatenate(back, axis=0),)
            # back[r] holds the gradient of every chunk's block for rank r, by chunk.
            cuts = [list(accumulate(col[:-1])) for col in zip(*send)]
            pieces = [np.split(b, cut) for b, cut in zip(back, cuts)]
            return tuple(
                np.concatenate([p[c] for p in pieces], axis=0) for c in range(len(send))
            )

        data = np.empty((sum(per_rank),) + first.shape[1:], dtype=first.data.dtype)
        self._out = _make(data, first.dtype, parents, backward, exact=True)
        return self._out


def _whole_starts(counts: list[list[int]]) -> list[list[int]]:
    """[chunk][rank] -> first row of that block in the whole layout: by
    rank, and by chunk within each rank."""
    starts = [[0] * len(row) for row in counts]
    row = 0
    for r, blocks in enumerate(zip(*counts)):  # rank r's block in each chunk
        for c, n in enumerate(blocks):
            starts[c][r], row = row, row + n
    return starts


def allreduce_sum(x: Tensor, comm: Comm, algorithm: str | None = None) -> Tensor:
    """Sum ``x`` across ranks; every rank returns the total.

    Autograd convention: the SPMD program computes one *logical* loss
    (each rank evaluates the same replicated value), so the adjoint of
    ``y = sum_r x_r`` is the identity — each rank's shard receives the
    (already replicated) output gradient with no further communication.
    This is the Megatron "g" operator used by tensor parallelism
    (:mod:`repro.parallel.tp`): allreduce forward, passthrough backward.
    The forward sends ``x`` in its wire format (float16 for fp16) and
    receives the float32 sum, which the result quantizes to ``x.dtype``.
    """
    data = comm.allreduce(to_wire(x.data, x.dtype), algorithm=algorithm)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (g,)

    return _make(data, x.dtype, (x,), backward)


def copy_to_tp_region(x: Tensor, comm: Comm, algorithm: str | None = None) -> Tensor:
    """Megatron's "f" operator: identity forward, allreduce backward.

    Marks the point where a replicated activation enters a
    tensor-parallel region: each shard consumes the same input, so the
    input's gradient is the *sum* of the shards' contributions.
    The dual of :func:`allreduce_sum` (the "g" operator). Its allreduce
    carries activation gradients, so it stays float32 on the wire.
    """
    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (comm.allreduce(g, algorithm=algorithm),)

    return _make(x.data, x.dtype, (x,), backward, exact=True)
