"""The simulated MPI communicator.

The API deliberately mirrors mpi4py's pickle-based interface
(``Get_rank``, ``send``/``recv``, ``bcast``/``allreduce``/``alltoall``,
``Split``...), so SPMD code written against this module reads like real
mpi4py code. Two differences:

* every operation also advances a per-rank **virtual clock** using the
  attached :class:`~repro.network.NetworkModel` (when present), so runs
  yield topology-aware simulated time for free;
* payloads are deep-copied at the communication boundary, which makes the
  shared-memory implementation behave like a real network.

Concurrency model: one Python thread per rank; all shared state is guarded
by a single world lock + condition variable (rank counts here are small, so
a global lock is simpler and plenty fast).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import CommunicatorError, DeadlockError, FaultInjected, RankAbort
from repro.simmpi.faults import FaultPlan
from repro.simmpi.payload import clone_payload, payload_nbytes
from repro.simmpi.stats import TrafficStats

__all__ = ["Comm", "ANY_SOURCE", "ANY_TAG", "SUM", "MAX", "MIN", "PROD"]

#: Wildcard source for :meth:`Comm.recv`.
ANY_SOURCE = -1
#: Wildcard tag for :meth:`Comm.recv`.
ANY_TAG = -1

# Reduction op names (string constants, mpi4py-style usage: op=simmpi.SUM).
SUM = "sum"
MAX = "max"
MIN = "min"
PROD = "prod"

_REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    SUM: lambda a, b: a + b,
    MAX: lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b),
    MIN: lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b),
    PROD: lambda a, b: a * b,
}


def _reduce_payloads(values: Sequence[Any], op: str) -> Any:
    """Fold ``values`` with the named reduction, left to right."""
    if op not in _REDUCERS:
        raise CommunicatorError(f"unknown reduction op {op!r}")
    fn = _REDUCERS[op]
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


#: Trace op name -> the ``NetworkModel.<kind>_time`` formula that prices it.
#: The one table: :class:`Comm` prices a collective from it at issue time and
#: the comm profiler (:mod:`repro.obs.comm`) re-prices trace events from it.
_COLLECTIVE_KINDS = {
    "barrier": "barrier",
    "bcast": "bcast",
    "scatter": "scatter",
    "gather": "gather",
    "allgather": "allgather",
    "reduce": "reduce",
    "allreduce": "allreduce",
    "reduce_scatter": "reduce_scatter",
    "alltoall": "alltoall",
    # Communicator management synchronizes like a barrier.
    "split": "barrier",
    "split-alloc": "barrier",
    "dup": "barrier",
    # Nonblocking variants price identically; only *when* the cost lands
    # on the clock differs (see :func:`complete_request`).
    "ialltoall": "alltoall",
    "iallreduce": "allreduce",
    "iallgather": "allgather",
}


def collective_seconds(
    network: Any, op: str, nbytes: float, members: Sequence[int],
    algorithm: str | None = None,
) -> float | None:
    """Cost-model seconds of one ``op`` call over ``members``, as traced.

    ``nbytes`` is what the trace records for the call; ``None`` when ``op``
    is not a modelled collective (compute, point-to-point, markers).
    """
    kind = _COLLECTIVE_KINDS.get(op)
    if kind is None:
        return None
    if kind == "barrier":
        return network.barrier_time(members)
    if kind == "alltoall":
        # The trace carries the total bytes leaving the rank; the cost
        # model wants the uniform per-pair payload.
        per_pair = nbytes / max(len(members) - 1, 1)
        return network.alltoall_time(per_pair, members, algorithm=algorithm)
    if kind == "allreduce":
        return network.allreduce_time(nbytes, members, algorithm=algorithm)
    return getattr(network, f"{kind}_time")(nbytes, members)


def complete_request(
    now: float, t_start: float, cost: float, overlapped: float
) -> tuple[float, float, float]:
    """The clock rule of every request: ``(new clock, hidden, exposed)``.

    ``now`` is the rank's clock at completion, ``t_start`` the issue time
    (for a collective, the latest member's arrival), ``overlapped`` the
    compute seconds advanced in between. The op cannot finish before its
    wire time elapses from ``t_start``; beyond that, only the *exposed*
    remainder ``cost - min(overlapped, cost)`` pushes the clock. A blocking
    call completes at once — ``overlapped == 0`` and ``now <= t_start`` —
    which gives ``t_start + cost``: the same rule, nothing hidden.
    """
    hidden = min(overlapped, cost)
    exposed = cost - hidden
    return max(now + exposed, t_start + cost), hidden, exposed


@dataclass
class _Envelope:
    source: int  # world rank
    tag: int
    payload: Any
    nbytes: int
    arrival: float  # virtual arrival time


class _World:
    """State shared by every rank thread of one SPMD run."""

    def __init__(
        self,
        size: int,
        network: Any | None,
        timeout: float,
        faults: FaultPlan | None,
        trace: bool = False,
        observe: bool = False,
    ):
        self.size = size
        self.network = network
        self.lock = threading.Lock()
        self.cv = threading.Condition(self.lock)
        self.mailboxes: list[list[_Envelope]] = [[] for _ in range(size)]
        self.clocks: list[float] = [0.0] * size
        self.aborted = False
        self.abort_exc: BaseException | None = None
        self.deadline = time.monotonic() + timeout
        self.faults = faults
        if faults is not None:
            # Stochastic models map ranks onto their node fleet and draw
            # this launch's failure times; scripted plans no-op.
            on_launch = getattr(faults, "on_launch", None)
            if on_launch is not None:
                on_launch(size)
        from repro.simmpi.context import RunContext  # local import: no cycle
        from repro.simmpi.trace import TraceEvent
        self.context = RunContext(trace=trace, observe=observe)
        self.stats = self.context.stats
        self.op_counters = [0] * size
        self._trace_event_cls = TraceEvent
        self.trace_events: list | None = self.context.trace_events
        self.flight = self.context.flight
        #: Per-world-rank in-flight nonblocking requests; ``Comm.advance``
        #: credits compute seconds to every request registered here.
        self.inflight: list[list] = [[] for _ in range(size)]

    def record(self, rank: int, op: str, t0: float, t1: float, nbytes: int = 0,
               hidden: float = 0.0) -> None:
        """Append a trace interval (call with the world lock held).

        The flight recorder is fed unconditionally — its bounded ring is
        the post-mortem evidence when this run dies — while the full
        trace stream stays opt-in.
        """
        self.flight.record(rank, op, t0, t1, nbytes)
        if self.trace_events is not None:
            self.trace_events.append(
                self._trace_event_cls(rank=rank, op=op, t_start=t0, t_end=t1,
                                      nbytes=nbytes, hidden=hidden)
            )

    # -- abort / wait helpers (call with lock held) --------------------- #

    def abort(self, exc: BaseException) -> None:
        with self.cv:
            if not self.aborted:
                self.aborted = True
                self.abort_exc = exc
            self.cv.notify_all()

    def check_live(self) -> None:
        if self.aborted:
            raise RankAbort("another rank aborted the SPMD program")

    def wait_for(self, predicate: Callable[[], bool], what: str) -> None:
        """Block until ``predicate()`` under the world condition variable."""
        while not predicate():
            self.check_live()
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                exc = DeadlockError(f"timed out waiting for {what}")
                # Unblock everyone else, then fail this rank.
                self.aborted = True
                self.abort_exc = exc
                self.cv.notify_all()
                raise exc
            self.cv.wait(min(remaining, 0.2))
        self.check_live()


class _Round:
    """One in-flight collective instance (op seq number on a comm)."""

    __slots__ = ("op", "contribs", "clocks", "result", "computed", "pickups")

    def __init__(self) -> None:
        self.op: str | None = None
        self.contribs: dict[int, Any] = {}
        self.clocks: dict[int, float] = {}
        self.result: Any = None
        self.computed = False
        self.pickups = 0


class _CommState:
    """Shared per-communicator state (member list + collective rounds)."""

    #: Never deep-copied when passed through a rendezvous (shared handle).
    __simmpi_no_clone__ = True

    _next_context_id = 0
    _context_lock = threading.Lock()

    def __init__(self, world: _World, members: list[int]):
        self.world = world
        self.members = list(members)  # group rank -> world rank
        self.rank_of_world = {w: i for i, w in enumerate(self.members)}
        self.rounds: dict[int, _Round] = {}
        self.seq = [0] * len(self.members)
        #: Cost-model seconds by (op kind, bytes, algorithm): the members
        #: and the world's network are fixed for the communicator's life,
        #: so a key is priced once (:meth:`Comm._collective`).
        self.prices: dict[tuple, float] = {}
        with _CommState._context_lock:
            self.context_id = _CommState._next_context_id
            _CommState._next_context_id += 1


class _Request:
    """An issued operation whose cost is charged at ``wait()``.

    The data plane already ran at issue time (payloads rendezvoused or
    enqueued eagerly), so completion can never deadlock — ``wait()`` is a
    purely local accounting step (:func:`complete_request`). A blocking
    collective is a request waited on before the call returns. A
    nonblocking one is registered on ``_World.inflight`` in between, where
    :meth:`Comm.advance` credits this rank's compute seconds into
    ``overlapped``; only those report their hidden/exposed split (from
    world rank 0, so float accumulation order stays deterministic) to
    :class:`TrafficStats` and the run's metric registry.
    """

    def __init__(self, comm: "Comm", op: str, value: Any, t_start: float,
                 cost: float, nbytes: int):
        self._comm = comm
        self.op = op
        self._value = value
        self._t_start = t_start
        self._cost = cost
        self._nbytes = nbytes
        #: Compute seconds accumulated while in flight (world lock held).
        self.overlapped = 0.0
        self._done = False

    def test(self) -> tuple[bool, Any]:
        """Nonblocking completion check; completes the request (see wait)."""
        return True, self.wait()

    def wait(self) -> Any:
        """Charge the exposed cost remainder and return the result."""
        if self._done:
            return self._value
        comm = self._comm
        world = comm._state.world
        me = comm.world_rank
        with world.lock:
            pending = world.inflight[me]
            was_inflight = self in pending
            if was_inflight:
                pending.remove(self)
            t0 = world.clocks[me]
            world.clocks[me], hidden, exposed = complete_request(
                t0, self._t_start, self._cost, self.overlapped
            )
            world.record(me, self.op, t0, world.clocks[me], self._nbytes,
                         hidden=hidden)
            # (An isend's bytes were counted as p2p traffic at issue time.)
            if self.op in _COLLECTIVE_KINDS and comm._group_rank == 0:
                world.stats.record_collective(self.op, self._nbytes)
            if was_inflight and me == 0:
                world.stats.record_overlap(self.op, hidden, exposed)
                ctx = world.context
                if ctx.observing:
                    ctx.metrics.counter("comm_overlapped_seconds", op=self.op).inc(hidden)
                    ctx.metrics.counter("comm_exposed_seconds", op=self.op).inc(exposed)
        self._done = True
        return self._value


class _SendRequest(_Request):
    """Request returned by :meth:`Comm.isend`.

    The payload is delivered eagerly (receiver semantics match blocking
    ``send``), but the sender-side cost — the full point-to-point time for
    the message, not just the alpha a blocking eager send charges — is
    deferred to ``wait()`` with overlap crediting.
    """


class _CollectiveRequest(_Request):
    """Request behind every collective, handed out by the nonblocking ones.

    Rendezvous happens eagerly at issue time (all members must issue their
    nonblocking collectives in the same order), so waits are purely local
    and ranks may complete requests in any order without deadlocking.
    """


class _RecvRequest:
    """Lazy receive request returned by :meth:`Comm.irecv`."""

    def __init__(self, comm: "Comm", source: int, tag: int):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = False
        self._value: Any = None

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check; returns (done, value_or_None)."""
        if self._done:
            return True, self._value
        got = self._comm._try_recv(self._source, self._tag)
        if got is not None:
            self._done = True
            self._value = got[0]
            return True, self._value
        return False, None

    def wait(self) -> Any:
        if self._done:
            return self._value
        self._value = self._comm.recv(source=self._source, tag=self._tag)
        self._done = True
        return self._value


class Comm:
    """A communicator handle held by one rank thread."""

    def __init__(self, state: _CommState, group_rank: int):
        self._state = state
        self._group_rank = group_rank

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def rank(self) -> int:
        """This rank's index within the communicator."""
        return self._group_rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._state.members)

    def Get_rank(self) -> int:  # noqa: N802 - mpi4py naming
        return self.rank

    def Get_size(self) -> int:  # noqa: N802 - mpi4py naming
        return self.size

    @property
    def world_rank(self) -> int:
        """This rank's index in the world communicator."""
        return self._state.members[self._group_rank]

    @property
    def members(self) -> tuple[int, ...]:
        """World ranks of every member, in group-rank order."""
        return tuple(self._state.members)

    @property
    def network(self) -> Any | None:
        """The attached :class:`~repro.network.NetworkModel`, if any."""
        return self._state.world.network

    @property
    def clock(self) -> float:
        """This rank's virtual clock in seconds."""
        return self._state.world.clocks[self.world_rank]

    @property
    def stats(self) -> TrafficStats:
        return self._state.world.stats

    @property
    def context(self):
        """The run's shared :class:`~repro.simmpi.RunContext` spine."""
        return self._state.world.context

    # ------------------------------------------------------------------ #
    # Virtual time
    # ------------------------------------------------------------------ #

    def advance(self, seconds: float) -> None:
        """Add local compute time to this rank's virtual clock.

        A fault plan/model can stretch the rank's compute time through its
        ``compute_scale`` hook — that is how straggler nodes slow the
        whole synchronous world down to their pace.
        """
        if seconds < 0:
            raise CommunicatorError(f"cannot advance clock by {seconds}")
        world = self._state.world
        scale_of = getattr(world.faults, "compute_scale", None)
        if scale_of is not None:
            seconds *= scale_of(self.world_rank)
        with world.lock:
            t0 = world.clocks[self.world_rank]
            world.clocks[self.world_rank] = t0 + seconds
            for req in world.inflight[self.world_rank]:
                req.overlapped += seconds
            world.record(self.world_rank, "compute", t0, t0 + seconds)

    # ------------------------------------------------------------------ #
    # Fault hook
    # ------------------------------------------------------------------ #

    def _tick_op(self) -> None:
        world = self._state.world
        with world.lock:
            idx = world.op_counters[self.world_rank]
            world.op_counters[self.world_rank] = idx + 1
            plan = world.faults
            clock = world.clocks[self.world_rank]
        if plan is not None and plan.should_kill(self.world_rank, idx, clock):
            raise FaultInjected(
                f"rank {self.world_rank} killed by fault plan at op {idx} "
                f"(virtual t={clock:.6f}s)",
                rank=self.world_rank,
            )

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Eager (buffered) send of a picklable object to ``dest``."""
        self._tick_op()
        self._check_peer(dest)
        world = self._state.world
        src_w = self.world_rank
        dst_w = self._state.members[dest]
        payload = clone_payload(obj)
        nbytes = payload_nbytes(payload)
        with world.cv:
            world.check_live()
            fault = world.faults.on_message(src_w, dst_w) if world.faults else None
            if fault is not None and fault.drop:
                world.stats.dropped_messages += 1
                return
            now = world.clocks[src_w]
            if world.network is not None:
                transit = world.network.p2p_time(nbytes, src_w, dst_w)
                # Sender pays the startup (alpha) cost locally.
                world.clocks[src_w] = now + world.network.p2p_time(0, src_w, dst_w)
            else:
                transit = 0.0
            arrival = now + transit + (fault.delay if fault is not None else 0.0)
            world.mailboxes[dst_w].append(
                _Envelope(source=src_w, tag=tag, payload=payload, nbytes=nbytes, arrival=arrival)
            )
            world.stats.record_p2p(src_w, nbytes)
            world.record(src_w, "send", now, world.clocks[src_w], nbytes)
            world.cv.notify_all()

    def isend(self, obj: Any, dest: int, tag: int = 0) -> _SendRequest:
        """Non-blocking send: payload delivered eagerly, cost charged lazily.

        The envelope lands in the destination mailbox immediately (same
        receiver-side semantics as :meth:`send`), but the sender's clock is
        untouched until ``request.wait()``, which charges the full
        point-to-point time minus whatever compute overlapped it.
        """
        self._tick_op()
        self._check_peer(dest)
        world = self._state.world
        src_w = self.world_rank
        dst_w = self._state.members[dest]
        payload = clone_payload(obj)
        nbytes = payload_nbytes(payload)
        with world.cv:
            world.check_live()
            fault = world.faults.on_message(src_w, dst_w) if world.faults else None
            now = world.clocks[src_w]
            if world.network is not None:
                transit = world.network.p2p_time(nbytes, src_w, dst_w)
            else:
                transit = 0.0
            if fault is not None and fault.drop:
                world.stats.dropped_messages += 1
            else:
                arrival = now + transit + (fault.delay if fault is not None else 0.0)
                world.mailboxes[dst_w].append(
                    _Envelope(source=src_w, tag=tag, payload=payload,
                              nbytes=nbytes, arrival=arrival)
                )
                world.stats.record_p2p(src_w, nbytes)
            req = _SendRequest(self, "isend", None, now, transit, nbytes)
            world.inflight[src_w].append(req)
            world.cv.notify_all()
        return req

    def _match(self, source: int, tag: int) -> int | None:
        """Index of the first matching envelope in my mailbox (lock held)."""
        box = self._state.world.mailboxes[self.world_rank]
        want_src = None if source == ANY_SOURCE else self._state.members[source]
        for i, env in enumerate(box):
            if want_src is not None and env.source != want_src:
                continue
            if tag != ANY_TAG and env.tag != tag:
                continue
            # Only accept messages from ranks within this communicator.
            if env.source not in self._state.rank_of_world:
                continue
            return i
        return None

    def _take(self, idx: int) -> Any:
        """Consume mailbox envelope ``idx`` (lock held): wait out its arrival
        on the clock and record the ``recv`` — polled or blocking alike."""
        world = self._state.world
        me = self.world_rank
        env = world.mailboxes[me].pop(idx)
        t0 = world.clocks[me]
        world.clocks[me] = max(t0, env.arrival)
        world.record(me, "recv", t0, world.clocks[me], env.nbytes)
        return env.payload

    def _try_recv(self, source: int, tag: int) -> tuple[Any] | None:
        """Non-blocking receive: a 1-tuple, or None when nothing matches —
        which leaves no trace (nothing recorded, no fault-plan op ticked)."""
        with self._state.world.cv:
            idx = self._match(source, tag)
            return None if idx is None else (self._take(idx),)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload object."""
        self._tick_op()
        if source != ANY_SOURCE:
            self._check_peer(source)
        world = self._state.world
        with world.cv:
            world.wait_for(lambda: self._match(source, tag) is not None,
                           f"recv(source={source}, tag={tag}) on rank {self.rank}")
            idx = self._match(source, tag)
            assert idx is not None
            return self._take(idx)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _RecvRequest:
        """Non-blocking receive request; call ``.wait()`` for the payload."""
        return _RecvRequest(self, source, tag)

    def sendrecv(self, obj: Any, dest: int, source: int) -> Any:
        """Combined send+receive (deadlock-free for exchange patterns)."""
        self.send(obj, dest)
        return self.recv(source=source)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is already waiting."""
        world = self._state.world
        with world.lock:
            return self._match(source, tag) is not None

    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(
                f"peer rank {rank} out of range for communicator of size {self.size}"
            )

    # ------------------------------------------------------------------ #
    # Collective rendezvous machinery
    # ------------------------------------------------------------------ #

    def _rendezvous(self, op: str, contribution: Any) -> tuple[dict[int, Any], float]:
        """Synchronize with all members; returns (contributions, t_start).

        ``contributions`` maps group rank -> (cloned) payload. ``t_start``
        is the max member clock at entry; the caller prices the op
        (:meth:`_collective`) and its request's ``wait()`` advances the clock.
        """
        self._tick_op()
        state = self._state
        world = state.world
        me = self._group_rank
        with world.cv:
            world.check_live()
            seq = state.seq[me]
            state.seq[me] += 1
            rnd = state.rounds.get(seq)
            if rnd is None:
                rnd = _Round()
                rnd.op = op
                state.rounds[seq] = rnd
            elif rnd.op != op:
                exc = CommunicatorError(
                    f"collective mismatch on comm {state.context_id}: rank {me} "
                    f"called {op!r} but round {seq} started as {rnd.op!r}"
                )
                world.aborted = True
                world.abort_exc = exc
                world.cv.notify_all()
                raise exc
            if me in rnd.contribs:
                raise CommunicatorError(
                    f"rank {me} contributed twice to collective round {seq}"
                )
            rnd.contribs[me] = clone_payload(contribution)
            rnd.clocks[me] = world.clocks[self.world_rank]
            world.cv.notify_all()
            world.wait_for(
                lambda: len(rnd.contribs) == len(state.members),
                f"collective {op!r} round {seq} ({len(rnd.contribs)}/{len(state.members)} arrived)",
            )
            t_start = max(rnd.clocks.values())
            contribs = rnd.contribs
            rnd.pickups += 1
            if rnd.pickups == len(state.members):
                del state.rounds[seq]
            return contribs, t_start

    def _collective(self, op: str, value: Any, t_start: float, nbytes: int,
                    algorithm: str | None = None) -> _CollectiveRequest:
        """Price an already-rendezvoused ``op`` into its request: a blocking
        collective waits on it at once, a nonblocking one registers it
        :meth:`_in_flight` and hands it to the caller."""
        state = self._state
        key = (_COLLECTIVE_KINDS[op], nbytes, algorithm)
        cost = state.prices.get(key)
        if cost is None:
            net = state.world.network
            cost = state.prices[key] = 0.0 if net is None else collective_seconds(
                net, op, nbytes, state.members, algorithm
            )
        return _CollectiveRequest(self, op, value, t_start, cost, nbytes)

    def _in_flight(self, req: _CollectiveRequest) -> _CollectiveRequest:
        """Register ``req`` so :meth:`advance` credits compute against it."""
        world = self._state.world
        with world.lock:
            world.inflight[self.world_rank].append(req)
        return req

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def barrier(self) -> None:
        """Block until every member arrives; synchronizes virtual clocks."""
        _, t0 = self._rendezvous("barrier", None)
        self._collective("barrier", None, t0, 0).wait()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns the value."""
        self._check_peer(root)
        contribs, t0 = self._rendezvous("bcast", obj if self.rank == root else None)
        payload = contribs[root]
        return self._collective(
            "bcast", clone_payload(payload), t0, payload_nbytes(payload)
        ).wait()

    def scatter(self, send_list: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a length-``size`` sequence from ``root``."""
        self._check_peer(root)
        if self.rank == root:
            if send_list is None or len(send_list) != self.size:
                raise CommunicatorError(
                    f"scatter root must pass a sequence of length {self.size}"
                )
        contribs, t0 = self._rendezvous("scatter", send_list if self.rank == root else None)
        mine = clone_payload(contribs[root][self.rank])
        return self._collective("scatter", mine, t0, payload_nbytes(mine)).wait()

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank to ``root`` (None elsewhere)."""
        self._check_peer(root)
        contribs, t0 = self._rendezvous("gather", obj)
        value = None
        if self.rank == root:
            value = [clone_payload(contribs[i]) for i in range(self.size)]
        return self._collective("gather", value, t0, payload_nbytes(obj)).wait()

    def _allgather(self, op: str, obj: Any) -> _CollectiveRequest:
        contribs, t0 = self._rendezvous(op, obj)
        value = [clone_payload(contribs[i]) for i in range(self.size)]
        return self._collective(op, value, t0, payload_nbytes(obj))

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object per rank to every rank."""
        return self._allgather("allgather", obj).wait()

    def reduce(self, value: Any, op: str = SUM, root: int = 0) -> Any:
        """Reduce to ``root`` (None elsewhere)."""
        self._check_peer(root)
        contribs, t0 = self._rendezvous("reduce", value)
        result = None
        if self.rank == root:
            result = _reduce_payloads([contribs[i] for i in range(self.size)], op)
        return self._collective("reduce", result, t0, payload_nbytes(value)).wait()

    def _allreduce(self, name: str, value: Any, op: str,
                   algorithm: str | None) -> _CollectiveRequest:
        contribs, t0 = self._rendezvous(name, value)
        result = _reduce_payloads([contribs[i] for i in range(self.size)], op)
        return self._collective(name, result, t0, payload_nbytes(value), algorithm)

    def allreduce(self, value: Any, op: str = SUM, algorithm: str | None = None) -> Any:
        """Reduce across all ranks; every rank returns the result.

        ``algorithm`` optionally forces "ring" / "tree" / "hierarchical"
        for the timing model (functional result is identical).
        """
        return self._allreduce("allreduce", value, op, algorithm).wait()

    def reduce_scatter(self, chunks: Sequence[Any], op: str = SUM) -> Any:
        """Each rank passes ``size`` chunks; returns the reduction of its own.

        Equivalent to MPI_Reduce_scatter_block with object semantics: rank r
        receives ``reduce(op, [chunks_from_rank_i[r] for i in ranks])``.
        """
        if len(chunks) != self.size:
            raise CommunicatorError(
                f"reduce_scatter needs {self.size} chunks, got {len(chunks)}"
            )
        contribs, t0 = self._rendezvous("reduce_scatter", list(chunks))
        mine = _reduce_payloads([contribs[i][self.rank] for i in range(self.size)], op)
        return self._collective("reduce_scatter", mine, t0, payload_nbytes(chunks)).wait()

    def _alltoall(self, op: str, send_list: Sequence[Any],
                  algorithm: str | None) -> _CollectiveRequest:
        if len(send_list) != self.size:
            raise CommunicatorError(
                f"alltoall needs {self.size} entries, got {len(send_list)}"
            )
        contribs, t0 = self._rendezvous(op, list(send_list))
        # Priced by the *actual* bytes this rank puts on the wire (the local
        # contribution stays in memory), averaged per destination — a
        # max-based figure would overcharge skewed exchanges.
        total = sum(
            payload_nbytes(x) for i, x in enumerate(send_list) if i != self.rank
        )
        value = [clone_payload(contribs[i][self.rank]) for i in range(self.size)]
        return self._collective(op, value, t0, total, algorithm)

    def alltoall(self, send_list: Sequence[Any], algorithm: str | None = None) -> list[Any]:
        """Total exchange: rank r receives ``send_list[r]`` from every rank.

        ``algorithm`` optionally forces "flat" / "hierarchical" for the
        timing model — this is the knob experiment F3 sweeps.
        """
        return self._alltoall("alltoall", send_list, algorithm).wait()

    # ------------------------------------------------------------------ #
    # Nonblocking collectives
    # ------------------------------------------------------------------ #

    def ialltoall(
        self, send_list: Sequence[Any], algorithm: str | None = None
    ) -> _CollectiveRequest:
        """Nonblocking total exchange; ``request.wait()`` yields the parts.

        The rendezvous runs eagerly (every member must issue its
        nonblocking collectives in the same order), so the result is
        already materialized when this returns — only the network cost is
        charged lazily, net of compute overlapped via :meth:`advance`.
        """
        return self._in_flight(self._alltoall("ialltoall", send_list, algorithm))

    def iallreduce(
        self, value: Any, op: str = SUM, algorithm: str | None = None
    ) -> _CollectiveRequest:
        """Nonblocking allreduce; ``request.wait()`` yields the reduction."""
        return self._in_flight(self._allreduce("iallreduce", value, op, algorithm))

    def iallgather(self, obj: Any) -> _CollectiveRequest:
        """Nonblocking allgather; ``request.wait()`` yields the list."""
        return self._in_flight(self._allgather("iallgather", obj))

    # ------------------------------------------------------------------ #
    # Communicator management
    # ------------------------------------------------------------------ #

    def Split(self, color: int | None, key: int | None = None) -> "Comm | None":  # noqa: N802
        """Partition the communicator by ``color``; order ranks by ``key``.

        Ranks passing ``color=None`` opt out and receive ``None`` (like
        ``MPI.UNDEFINED``).
        """
        me = self._group_rank
        sort_key = me if key is None else key
        contribs, t0 = self._rendezvous("split", (color, sort_key))
        self._collective("split", None, t0, 0).wait()
        # Deterministically build one shared _CommState per color. Every
        # member computes the same membership, but the state object must be
        # shared — we stash it on the round via a second rendezvous where
        # rank 0 of each color group allocates.
        if color is None:
            # Still participate in the allocation rendezvous to keep the
            # collective streams aligned across members.
            self._rendezvous("split-alloc", None)
            return None
        groups: dict[int, list[tuple[int, int]]] = {}
        for grank in range(self.size):
            c, k = contribs[grank]
            if c is None:
                continue
            groups.setdefault(c, []).append((k, grank))
        members_by_color = {
            c: [self._state.members[g] for _, g in sorted(pairs)]
            for c, pairs in groups.items()
        }
        my_members = members_by_color[color]
        leader = my_members[0]
        state: _CommState | None = None
        if self.world_rank == leader:
            state = _CommState(self._state.world, my_members)
        alloc_contribs, _ = self._rendezvous("split-alloc", state)
        # Find the state allocated by my group's leader.
        leader_grank = self._state.rank_of_world[leader]
        shared = alloc_contribs[leader_grank]
        assert isinstance(shared, _CommState)
        return Comm(shared, shared.rank_of_world[self.world_rank])

    def Dup(self) -> "Comm":  # noqa: N802
        """Duplicate the communicator with a fresh collective context."""
        state: _CommState | None = None
        if self._group_rank == 0:
            state = _CommState(self._state.world, list(self._state.members))
        contribs, t0 = self._rendezvous("dup", state)
        self._collective("dup", None, t0, 0).wait()
        shared = contribs[0]
        assert isinstance(shared, _CommState)
        return Comm(shared, self._group_rank)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Comm(rank={self.rank}/{self.size}, world_rank={self.world_rank}, "
            f"ctx={self._state.context_id})"
        )
