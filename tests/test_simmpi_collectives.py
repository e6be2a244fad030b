"""Collective semantics of the simulated MPI (functional correctness)."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.simmpi import MIN, SUM, run_spmd

SIZES = [1, 2, 3, 5, 8]


@pytest.mark.parametrize("size", SIZES)
def test_bcast_scalar(size):
    res = run_spmd(lambda c: c.bcast(c.rank * 7 + 1), size)
    assert res.returns == [1] * size


def test_bcast_array_is_private_copy():
    def program(comm):
        arr = comm.bcast(np.zeros(3) if comm.rank == 0 else None)
        arr += comm.rank  # must not leak to other ranks
        comm.barrier()
        return float(arr.sum())

    res = run_spmd(program, 3)
    assert res.returns == [0.0, 3.0, 6.0]


@pytest.mark.parametrize("size", SIZES)
def test_allreduce_sum_scalar(size):
    res = run_spmd(lambda c: c.allreduce(c.rank + 1), size)
    assert res.returns == [size * (size + 1) // 2] * size


def test_allreduce_ops():
    def program(comm):
        v = comm.rank + 1
        return (
            comm.allreduce(v, op=SUM),
            comm.allreduce(v, op=MIN),
        )

    res = run_spmd(program, 4)
    assert res.returns == [(10, 1)] * 4


def test_allreduce_arrays_elementwise():
    def program(comm):
        x = np.array([comm.rank, -comm.rank], dtype=np.float64)
        return comm.allreduce(x, op=MIN)

    res = run_spmd(program, 4)
    assert np.allclose(res.returns[0], [0, -3])


@pytest.mark.parametrize("nonblocking", [False, True])
def test_allreduce_of_float16_is_the_float32_left_fold(nonblocking):
    """A SUM of float16 payloads accumulates in float32, in rank order, and
    returns float32; the traffic counts the float16 bytes, and every member
    gets its own result array."""
    size, n = 4, 256
    halves = [
        (np.random.default_rng(r).standard_normal(n) * 300).astype(np.float16)
        for r in range(size)
    ]

    def program(comm):
        if nonblocking:
            return comm.iallreduce(halves[comm.rank]).wait()
        return comm.allreduce(halves[comm.rank])

    res = run_spmd(program, size)
    fold = halves[0].astype(np.float32)
    for h in halves[1:]:
        fold = fold + h.astype(np.float32)
    half_fold = halves[0]
    for h in halves[1:]:
        half_fold = half_fold + h
    assert not np.array_equal(fold, half_fold.astype(np.float32))  # fp16 sums would round
    for got in res.returns:
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), fold.view(np.uint32))
    for i, got in enumerate(res.returns):
        assert not any(np.shares_memory(got, other) for other in res.returns[i + 1:])
    op = "iallreduce" if nonblocking else "allreduce"
    assert res.context.stats.collective_calls[op] == 1
    assert res.context.stats.collective_bytes[op] == 2 * n


def test_allreduce_unknown_op():
    def program(comm):
        comm.allreduce(1, op="median")

    with pytest.raises(CommunicatorError):
        run_spmd(program, 2)


@pytest.mark.parametrize("size", SIZES)
def test_allgather(size):
    res = run_spmd(lambda c: c.allgather(c.rank**2), size)
    assert res.returns == [[r**2 for r in range(size)]] * size


def test_gather_root_only():
    res = run_spmd(lambda c: c.gather(c.rank), 4)
    assert res.returns[0] == [0, 1, 2, 3]
    assert res.returns[1] is None


@pytest.mark.parametrize("size", SIZES)
def test_alltoall_permutation(size):
    def program(comm):
        send = [comm.rank * 100 + d for d in range(comm.size)]
        return comm.alltoall(send)

    res = run_spmd(program, size)
    for r in range(size):
        assert res.returns[r] == [s * 100 + r for s in range(size)]


def test_alltoall_wrong_length():
    def program(comm):
        comm.alltoall([1])

    with pytest.raises(CommunicatorError):
        run_spmd(program, 3)


def test_alltoall_variable_sizes():
    """Alltoallv-style usage: each pair gets a differently-sized array."""

    def program(comm):
        send = [np.full(comm.rank + d + 1, comm.rank, dtype=np.int64) for d in range(comm.size)]
        got = comm.alltoall(send)
        return [int(a.sum()) for a in got]

    res = run_spmd(program, 3)
    # rank r receives from s an array of length s + r + 1 filled with s.
    for r in range(3):
        assert res.returns[r] == [s * (s + r + 1) for s in range(3)]


def test_barrier_completes():
    res = run_spmd(lambda c: (c.barrier(), c.rank)[1], 6)
    assert res.returns == list(range(6))


def test_collective_mismatch_detected():
    def program(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allreduce(1)

    with pytest.raises(CommunicatorError, match="mismatch"):
        run_spmd(program, 2)


def test_collectives_stream_many_rounds():
    """Many back-to-back collectives keep their rounds separated."""

    def program(comm):
        total = 0
        for i in range(50):
            total += comm.allreduce(comm.rank + i)
        return total

    res = run_spmd(program, 3)
    expected = sum(sum(r + i for r in range(3)) for i in range(50))
    assert res.returns == [expected] * 3
