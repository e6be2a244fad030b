"""Nonblocking collectives: results, overlap accounting, deadlock safety."""

import numpy as np
import pytest

from repro.models import Parameter
from repro.network import sunway_network
from repro.parallel.collective_ops import PendingAlltoallRows
from repro.parallel.dp import PendingGradAllreduce
from repro.simmpi import SUM, run_spmd
from repro.simmpi.comm import collective_seconds, complete_request
from repro.tensor import Tensor

WORLD = 4


def _net(size=WORLD):
    return sunway_network(size, supernode_size=2)


# --------------------------------------------------------------------- #
# Functional results match the blocking collectives
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("size", [1, 2, 4])
def test_iallreduce_matches_allreduce(size):
    def program(comm):
        blocking = comm.allreduce(comm.rank + 1.0)
        req = comm.iallreduce(comm.rank + 1.0, op=SUM)
        return blocking, req.wait()

    for blocking, nonblocking in run_spmd(program, size).returns:
        assert nonblocking == blocking


@pytest.mark.parametrize("size", [1, 2, 4])
def test_ialltoall_matches_alltoall(size):
    def program(comm):
        send = [np.full(3, 10 * comm.rank + d, dtype=np.float64)
                for d in range(comm.size)]
        blocking = comm.alltoall(send)
        got = comm.ialltoall(send).wait()
        return all(np.array_equal(a, b) for a, b in zip(blocking, got))

    assert all(run_spmd(program, size).returns)


@pytest.mark.parametrize("size", [1, 2, 4])
def test_iallgather_matches_allgather(size):
    def program(comm):
        blocking = comm.allgather(comm.rank * 2)
        return comm.iallgather(comm.rank * 2).wait() == blocking

    assert all(run_spmd(program, size).returns)


def test_ialltoall_result_is_private_copy():
    def program(comm):
        send = [np.zeros(2) for _ in range(comm.size)]
        got = comm.ialltoall(send).wait()
        got[0] += comm.rank + 1  # must not leak across ranks
        comm.barrier()
        return float(got[0].sum())

    res = run_spmd(program, 2)
    assert res.returns == [2.0, 4.0]


# --------------------------------------------------------------------- #
# Overlap accounting on the virtual clock
# --------------------------------------------------------------------- #


def _payload(comm):
    return [np.zeros(1 << 14) for _ in range(comm.size)]


def test_overlapped_compute_hides_comm_cost():
    """advance() between issue and wait shrinks the charged comm time."""

    def blocking(comm):
        comm.alltoall(_payload(comm))
        comm.advance(1e-3)
        return comm.clock

    def overlapped(comm):
        req = comm.ialltoall(_payload(comm))
        comm.advance(1e-3)
        req.wait()
        return comm.clock

    t_blocking = max(run_spmd(blocking, WORLD, network=_net()).returns)
    t_overlapped = max(run_spmd(overlapped, WORLD, network=_net()).returns)
    assert t_overlapped < t_blocking


def test_fully_hidden_collective_charges_nothing_extra():
    """Compute >= comm cost: wait() is free beyond the wire-time floor."""

    def program(comm):
        req = comm.ialltoall(_payload(comm))
        comm.advance(10.0)  # far larger than any modelled alltoall here
        req.wait()
        return comm.clock

    res = run_spmd(program, WORLD, network=_net())
    assert max(res.returns) == pytest.approx(10.0)
    overlapped = res.context.stats.overlapped_seconds["ialltoall"]
    exposed = res.context.stats.exposed_seconds["ialltoall"]
    assert overlapped > 0
    assert exposed == 0.0


def test_wait_without_compute_costs_like_blocking():
    def blocking(comm):
        comm.alltoall(_payload(comm))
        return comm.clock

    def eager_wait(comm):
        return (comm.ialltoall(_payload(comm)).wait(), comm.clock)[1]

    t_blocking = run_spmd(blocking, WORLD, network=_net()).returns
    t_eager = run_spmd(eager_wait, WORLD, network=_net()).returns
    assert t_eager == pytest.approx(t_blocking)


def test_overlap_recorded_in_trace_and_stats():
    def program(comm):
        req = comm.iallreduce(np.zeros(1 << 12))
        comm.advance(5e-4)
        req.wait()

    res = run_spmd(program, WORLD, network=_net(), trace=True)
    events = [e for e in res.context.trace_events if e.op == "iallreduce"]
    assert len(events) == WORLD
    assert all(e.hidden > 0 for e in events)
    assert res.context.stats.overlapped_seconds["iallreduce"] > 0


def test_isend_charges_bytes_on_wait():
    """isend cost (full p2p time) lands at wait(), net of overlap."""

    def program(comm):
        if comm.rank == 0:
            req = comm.isend(np.zeros(1 << 16), dest=1)
            t_issue = comm.clock
            req.wait()
            return t_issue, comm.clock
        return comm.recv(source=0) is not None

    res = run_spmd(program, 2, network=_net(2))
    t_issue, t_done = res.returns[0]
    assert t_issue == 0.0  # issue itself is free
    assert t_done > 0.0  # the wire time is charged at wait()


def test_isend_overlap_credits_compute():
    def program(comm):
        if comm.rank == 0:
            req = comm.isend(np.zeros(1 << 16), dest=1)
            comm.advance(10.0)
            req.wait()
            return comm.clock
        comm.recv(source=0)
        return None

    res = run_spmd(program, 2, network=_net(2))
    assert res.returns[0] == pytest.approx(10.0)


# --------------------------------------------------------------------- #
# Deadlock regression: waits are local, so wait order cannot matter
# --------------------------------------------------------------------- #


def test_interleaved_wait_orders_do_not_deadlock():
    """Ranks issue the same collective sequence but wait in different
    (even reversed) orders — completion must stay purely local."""

    def program(comm):
        req_a = comm.iallreduce(float(comm.rank))
        req_b = comm.ialltoall([comm.rank * 10 + d for d in range(comm.size)])
        req_c = comm.iallgather(comm.rank)
        reqs = {"a": req_a, "b": req_b, "c": req_c}
        orders = ["abc", "cba", "bca", "acb"]
        out = {k: reqs[k].wait() for k in orders[comm.rank % len(orders)]}
        return out["a"], out["b"], out["c"]

    res = run_spmd(program, WORLD, network=_net(), timeout=30.0)
    total = sum(range(WORLD))
    for rank, (a, b, c) in enumerate(res.returns):
        assert a == float(total)
        assert b == [src * 10 + rank for src in range(WORLD)]
        assert c == list(range(WORLD))


def test_mixed_blocking_between_nonblocking_waits():
    """A blocking collective issued while requests are outstanding still
    completes (rendezvous already happened at issue time)."""

    def program(comm):
        req = comm.ialltoall([comm.rank] * comm.size)
        total = comm.allreduce(1)
        got = req.wait()
        return total, got

    res = run_spmd(program, WORLD, network=_net(), timeout=30.0)
    for total, got in res.returns:
        assert total == WORLD
        assert got == list(range(WORLD))


# --------------------------------------------------------------------- #
# Satellite: sum-based alltoall byte accounting
# --------------------------------------------------------------------- #


def test_alltoall_bytes_are_sum_based():
    """Skewed exchanges are priced by actual off-rank bytes, not the max."""

    def program(comm):
        # rank 0 sends 1 KiB to rank 1 and 1 MiB to... no: make it skewed
        # per destination: big payload to the next rank, tiny elsewhere.
        send = [np.zeros(1, dtype=np.float64) for _ in range(comm.size)]
        send[(comm.rank + 1) % comm.size] = np.zeros(1024, dtype=np.float64)
        comm.alltoall(send)

    res = run_spmd(program, WORLD)
    # Off-rank bytes from rank 0: one 1024-row payload + two 1-row payloads
    # (the self-slot never hits the wire).
    expected = 1024 * 8 + 2 * 8
    assert res.context.stats.collective_bytes["alltoall"] == expected


def test_alltoall_skewed_cheaper_than_uniform_max():
    """The old max-based pricing charged this skewed exchange like a
    uniform big one; sum-based pricing must be strictly cheaper."""

    def skewed(comm):
        send = [np.zeros(8, dtype=np.float64) for _ in range(comm.size)]
        send[(comm.rank + 1) % comm.size] = np.zeros(1 << 15, dtype=np.float64)
        comm.alltoall(send)
        return comm.clock

    def uniform_big(comm):
        comm.alltoall([np.zeros(1 << 15, dtype=np.float64)
                       for _ in range(comm.size)])
        return comm.clock

    t_skewed = max(run_spmd(skewed, WORLD, network=_net()).returns)
    t_uniform = max(run_spmd(uniform_big, WORLD, network=_net()).returns)
    assert t_skewed < t_uniform


# --------------------------------------------------------------------- #
# Blocking is issue-then-complete: X(...) == iX(...).wait(), bitwise
# --------------------------------------------------------------------- #

PAIRS = ["alltoall", "allreduce", "allgather"]


def _call(sub, kind, nonblocking, rng_seed, world_rank):
    """Issue one collective of ``kind`` on ``sub``; returns (request-or-value, bytes)."""
    # Every rank draws the same stream, then takes its own row: sizes differ
    # per (source, destination) but line up across the group.
    sizes = np.random.default_rng(rng_seed).integers(0, 65, size=(WORLD, WORLD))
    if kind == "alltoall":
        arg = [np.full(int(sizes[world_rank, d]), world_rank + 0.5) for d in range(sub.size)]
    elif kind == "allreduce":
        arg = np.full(int(sizes[0, 0]) + 1, world_rank + 0.25)
    else:
        arg = np.full(int(sizes[world_rank, 0]), float(world_rank))
    return getattr(sub, ("i" if nonblocking else "") + kind)(arg)


def _flat_bytes(value):
    parts = value if isinstance(value, list) else [value]
    return [np.asarray(p).tobytes() for p in parts]


def _pair_program(comm, kind, nonblocking, split, seed, overlap):
    rng = np.random.default_rng(seed + 1)
    skews = rng.uniform(0.0, 3e-5, size=WORLD)  # same draw on every rank
    sub = comm.Split(color=comm.rank % 2, key=comm.rank) if split else comm
    comm.advance(float(skews[comm.rank]))
    entry = comm.clock
    out = _call(sub, kind, nonblocking, seed, comm.rank)
    if nonblocking:
        if overlap:
            comm.advance(overlap)
        out = out.wait()
    return _flat_bytes(out), entry, comm.clock, sub.members


def _intervals(res, op):
    return sorted((e.rank, e.t_start, e.t_end, e.nbytes, e.hidden)
                  for e in res.context.trace_events if e.op == op)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("kind", PAIRS)
@pytest.mark.parametrize("seed", range(4))
def test_wait_with_nothing_overlapped_is_the_blocking_call(kind, split, seed):
    """Same result, clock and trace interval; only the op name and the
    ``exposed_seconds`` entry tell the flavours apart."""
    net = _net()
    runs = {
        nb: run_spmd(_pair_program, WORLD, network=net, trace=True,
                     args=(kind, nb, split, seed, 0.0))
        for nb in (False, True)
    }
    blocking, nonblocking = runs[False], runs[True]
    assert nonblocking.returns == blocking.returns
    assert _intervals(nonblocking, "i" + kind) == _intervals(blocking, kind)
    assert len(_intervals(blocking, kind)) == WORLD
    assert not _intervals(nonblocking, kind) and not _intervals(blocking, "i" + kind)
    b, n = blocking.context.stats, nonblocking.context.stats
    assert n.collective_calls["i" + kind] == b.collective_calls[kind] > 0
    assert n.collective_bytes["i" + kind] == b.collective_bytes[kind]
    assert n.p2p_bytes == b.p2p_bytes
    # Only nonblocking ops report an overlap split — here, all of it exposed.
    assert not b.exposed_seconds and not b.overlapped_seconds
    assert list(n.exposed_seconds) == ["i" + kind]
    assert n.overlapped_seconds["i" + kind] == 0.0
    rank0 = next(i for i in _intervals(nonblocking, "i" + kind) if i[0] == 0)
    members0 = nonblocking.returns[0][3]
    cost = collective_seconds(net, kind, rank0[3], members0)
    assert n.exposed_seconds["i" + kind] == cost


@pytest.mark.parametrize("overlap", [0.0, 2e-6, 1.0])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("kind", PAIRS)
def test_completion_rule_reproduces_thread_mode_clocks(kind, split, overlap):
    """``complete_request`` on the recorded (now, t_start, cost, overlapped)
    gives every clock the rank threads produced, for both flavours."""
    net = _net()
    for nonblocking in (False, True):
        res = run_spmd(_pair_program, WORLD, network=net, trace=True,
                       args=(kind, nonblocking, split, 7, overlap))
        op = ("i" if nonblocking else "") + kind
        entries = [ret[1] for ret in res.returns]
        for rank, now, t_end, nbytes, hidden in _intervals(res, op):
            members = res.returns[rank][3]
            t_start = max(entries[m] for m in members)
            cost = collective_seconds(net, op, nbytes, members)
            overlapped = overlap if nonblocking else 0.0
            # ``now``: the rank's clock when it completed the request.
            assert now == entries[rank] + overlapped
            clock, want_hidden, exposed = complete_request(now, t_start, cost, overlapped)
            assert (t_end, hidden) == (clock, want_hidden)
            assert res.returns[rank][2] == clock
            assert want_hidden + exposed == pytest.approx(cost)
            if not nonblocking:
                assert clock == t_start + cost and hidden == 0.0


def test_completion_rule_is_pure_arithmetic():
    # nothing overlapped, arrived first: pays the wait for the last arrival + cost
    assert complete_request(1.0, 3.0, 0.5, 0.0) == (3.5, 0.0, 0.5)
    # partly hidden: the exposed remainder lands on this rank's own clock
    assert complete_request(3.25, 3.0, 0.5, 0.25) == (3.5, 0.25, 0.25)
    # fully hidden: free beyond the wire-time floor
    assert complete_request(10.0, 3.0, 0.5, 7.0) == (10.0, 0.5, 0.0)
    assert complete_request(0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


# --------------------------------------------------------------------- #
# ... and at the wrapper layer: one row exchange, one gradient sync
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("dtype", ["fp32", "fp16", "bf16"])
def test_alltoall_rows_is_ialltoall_rows_waited(dtype):
    """The row exchange issued blocking equals it issued nonblocking and
    waited: same rows, counts, gradients and clock."""
    def program(comm, nonblocking):
        rng = np.random.default_rng(5)  # same stream on every rank: counts line up
        counts = rng.integers(0, 4, size=(comm.size, comm.size))[comm.rank].tolist()
        x = Tensor(rng.standard_normal((sum(counts), 3)), requires_grad=True, dtype=dtype)
        out, recv = PendingAlltoallRows(x, counts, comm, None, nonblocking).wait()
        weights = Tensor(rng.standard_normal(out.shape), dtype=dtype)
        (out * weights).sum().backward()
        return out.data.tobytes(), recv, x.grad.tobytes(), comm.clock

    blocking = run_spmd(program, WORLD, network=_net(), args=(False,))
    nonblocking = run_spmd(program, WORLD, network=_net(), args=(True,))
    assert nonblocking.returns == blocking.returns
    assert nonblocking.context.stats.collective_calls["ialltoall"] == 1
    # the transposed exchange of the backward is blocking on both sides
    assert blocking.context.stats.collective_calls["alltoall"] == 2


@pytest.mark.parametrize("num_buckets", [1, 2, 3])
@pytest.mark.parametrize("average", [True, False])
def test_allreduce_gradients_is_iallreduce_gradients_waited(num_buckets, average):
    """One blocking bucket of the gradient sync equals ``num_buckets``
    nonblocking ones, waited."""
    def program(comm, buckets):
        rng = np.random.default_rng(100 + comm.rank)
        params = [Parameter(np.zeros(shape, dtype=np.float32)) for shape in [(3, 2), (5,), (1,)]]
        for p in params[:2]:  # the third keeps grad None: synced as zeros
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
        if buckets is None:
            nbytes = PendingGradAllreduce(comm, params, average, None, 1, nonblocking=False).wait()
        else:
            handle = PendingGradAllreduce(comm, params, average, None, buckets, nonblocking=True)
            nbytes = handle.wait()
            assert handle.wait() == nbytes  # idempotent: no second averaging
        return nbytes, [p.grad.tobytes() for p in params]

    blocking = run_spmd(program, WORLD, network=_net(), args=(None,))
    bucketed = run_spmd(program, WORLD, network=_net(), args=(num_buckets,))
    assert bucketed.returns == blocking.returns
    assert blocking.returns[0][0] == (6 + 5 + 1) * 4
    assert blocking.context.stats.collective_calls["allreduce"] == 1
    assert bucketed.context.stats.collective_calls["iallreduce"] == num_buckets
