"""Point-to-point semantics of the simulated MPI."""

import numpy as np
import pytest

from repro.errors import CommunicatorError, DeadlockError
from repro.network import sunway_network
from repro.simmpi import run_spmd


def test_send_recv_object():
    def program(comm):
        if comm.rank == 0:
            comm.send({"x": [1, 2, 3]}, dest=1, tag=5)
            return None
        return comm.recv(source=0, tag=5)

    res = run_spmd(program, 2)
    assert res.returns[1] == {"x": [1, 2, 3]}


def test_send_recv_numpy_roundtrip():
    def program(comm):
        if comm.rank == 0:
            comm.send(np.arange(10, dtype=np.float32), dest=1)
            return None
        arr = comm.recv(source=0)
        return arr.sum()

    res = run_spmd(program, 2)
    assert res.returns[1] == pytest.approx(45.0)


def test_send_copies_buffer():
    """Mutating the send buffer after send must not affect the receiver."""

    def program(comm):
        if comm.rank == 0:
            buf = np.zeros(4)
            comm.send(buf, dest=1)
            buf[:] = 99.0
            comm.barrier()
            return None
        comm.barrier()
        return comm.recv(source=0)

    res = run_spmd(program, 2)
    assert np.allclose(res.returns[1], 0.0)


def test_tag_matching_out_of_order():
    """A recv with a specific tag skips earlier non-matching messages."""

    def program(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)
        first = comm.recv(source=0, tag=1)
        return (first, second)

    res = run_spmd(program, 2)
    assert res.returns[1] == ("first", "second")


def test_recv_is_traced_at_its_arrival():
    """A receive records its bytes in the trace and the flight ring and
    moves the receiver's clock to the message's arrival."""
    payload = np.zeros(100)

    def program(comm):
        if comm.rank == 0:
            comm.send(payload, dest=1)
            return None
        return comm.recv(source=0).nbytes

    res = run_spmd(program, 2, network=sunway_network(2, supernode_size=2), trace=True)
    assert res.returns[1] == payload.nbytes
    recvs = [e for e in res.context.trace_events if (e.rank, e.op) == (1, "recv")]
    assert [e.nbytes for e in recvs] == [payload.nbytes]
    assert recvs[0].t_end == res.clocks[1] > 0.0
    ring = res.context.flight.dump()["ranks"][1]
    assert [(e["op"], e["nbytes"]) for e in ring if e["op"] == "recv"] == [("recv", payload.nbytes)]


def test_sendrecv_exchange():
    def program(comm):
        peer = 1 - comm.rank
        return comm.sendrecv(comm.rank * 10, dest=peer, source=peer)

    res = run_spmd(program, 2)
    assert res.returns == [10, 0]


def test_recv_from_invalid_rank_raises():
    def program(comm):
        if comm.rank == 0:
            comm.recv(source=7)
        return None

    with pytest.raises(CommunicatorError):
        run_spmd(program, 2)


def test_recv_without_send_deadlocks():
    def program(comm):
        if comm.rank == 0:
            comm.recv(source=1)
        return None

    with pytest.raises(DeadlockError):
        run_spmd(program, 2, timeout=1.0)


def test_exception_in_one_rank_propagates():
    def program(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 exploded")
        comm.recv(source=1)  # would deadlock without abort propagation

    with pytest.raises(ValueError, match="rank 1 exploded"):
        run_spmd(program, 2, timeout=30.0)


def test_world_size_one_works():
    res = run_spmd(lambda comm: comm.rank, 1)
    assert res.returns == [0]


def test_invalid_world_size():
    with pytest.raises(CommunicatorError):
        run_spmd(lambda comm: None, 0)
