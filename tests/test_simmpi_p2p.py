"""Point-to-point semantics of the simulated MPI."""

import numpy as np
import pytest

from repro.errors import CommunicatorError, DeadlockError
from repro.network import sunway_network
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_spmd


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


def test_any_source_any_tag():
    def program(comm):
        if comm.rank == 2:
            got = sorted(comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(2))
            return got
        comm.send(comm.rank, dest=2, tag=comm.rank)
        return None

    res = run_spmd(program, 3)
    assert res.returns[2] == [0, 1]


def test_isend_irecv():
    def program(comm):
        if comm.rank == 0:
            req = comm.isend([1, 2], dest=1)
            req.wait()
            return None
        req = comm.irecv(source=0)
        return req.wait()

    res = run_spmd(program, 2)
    assert res.returns[1] == [1, 2]


def test_irecv_test_polling():
    def program(comm):
        if comm.rank == 0:
            comm.recv(source=1, tag=9)  # wait for the poke
            comm.send("payload", dest=1)
            return None
        req = comm.irecv(source=0)
        done, _ = req.test()
        assert not done  # nothing sent yet
        comm.send("poke", dest=0, tag=9)
        return req.wait()

    res = run_spmd(program, 2)
    assert res.returns[1] == "payload"


def test_polled_receive_is_traced_like_a_blocking_one():
    """``irecv().test()`` completing leaves the same ``recv`` evidence as
    ``recv()``; a poll that finds nothing leaves none and is no fault-plan op."""
    payload = np.zeros(100)

    def program(comm):
        world = comm._state.world
        if comm.rank == 0:
            comm.recv(source=1, tag=9)  # wait for the poke
            comm.send(payload, dest=1)
            return None
        req = comm.irecv(source=0)
        ops_before = world.op_counters[1]
        assert req.test() == (False, None)  # nothing sent yet
        assert world.op_counters[1] == ops_before
        polled_nothing = [e.op for e in world.trace_events if e.rank == 1]
        comm.send("poke", dest=0, tag=9)
        while not req.test()[0]:
            pass
        return polled_nothing, req.test()[1].nbytes

    res = run_spmd(program, 2, network=sunway_network(2, supernode_size=2), trace=True)
    polled_nothing, nbytes = res.returns[1]
    assert polled_nothing == [] and nbytes == payload.nbytes
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


def test_probe():
    def program(comm):
        if comm.rank == 0:
            comm.send("x", dest=1)
            comm.barrier()
            return None
        comm.barrier()
        assert comm.probe(source=0)
        comm.recv(source=0)
        assert not comm.probe(source=0)
        return True

    res = run_spmd(program, 2)
    assert res.returns[1] is True


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
