"""Model-based testing: random SPMD programs against a sequential oracle.

Hypothesis generates random sequences of collective operations; every rank
executes the same sequence on rank-dependent inputs, and the results are
checked against a simple sequential simulation of MPI semantics. This
catches cross-operation state bugs (round bookkeeping, stream mixing,
clock regressions) that single-op tests cannot.
"""

from hypothesis import given, settings, strategies as st

from repro.network import sunway_network
from repro.simmpi import run_spmd

# An op is its kind. Inputs for rank r at step i are derived
# deterministically from (r, i), so the oracle can recompute them.
op_strategy = st.sampled_from(
    ["allreduce", "allgather", "bcast", "gather", "alltoall", "barrier"]
)


def _input(rank: int, step: int) -> int:
    return (rank * 37 + step * 101) % 1000


def _oracle(size: int, ops) -> list[list]:
    """Sequentially simulate the per-rank outputs of the op sequence."""
    outs: list[list] = [[] for _ in range(size)]
    for step, kind in enumerate(ops):
        vals = [_input(r, step) for r in range(size)]
        if kind == "allreduce":
            total = sum(vals)
            for r in range(size):
                outs[r].append(total)
        elif kind == "allgather":
            for r in range(size):
                outs[r].append(list(vals))
        elif kind == "bcast":
            for r in range(size):
                outs[r].append(vals[0])
        elif kind == "gather":
            for r in range(size):
                outs[r].append(list(vals) if r == 0 else None)
        elif kind == "alltoall":
            # rank r sends vals[r] * 10 + d to dest d.
            for r in range(size):
                outs[r].append([vals[s] * 10 + r for s in range(size)])
        elif kind == "barrier":
            for r in range(size):
                outs[r].append("b")
    return outs


def _program(comm, ops):
    out = []
    for step, kind in enumerate(ops):
        v = _input(comm.rank, step)
        if kind == "allreduce":
            out.append(comm.allreduce(v))
        elif kind == "allgather":
            out.append(comm.allgather(v))
        elif kind == "bcast":
            out.append(comm.bcast(v if comm.rank == 0 else None))
        elif kind == "gather":
            out.append(comm.gather(v))
        elif kind == "alltoall":
            out.append(comm.alltoall([v * 10 + d for d in range(comm.size)]))
        elif kind == "barrier":
            comm.barrier()
            out.append("b")
    return out


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(op_strategy, min_size=1, max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_random_programs_match_oracle(size, ops):
    res = run_spmd(_program, size, args=(ops,), timeout=60)
    expected = _oracle(size, ops)
    assert res.returns == expected


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(op_strategy, min_size=1, max_size=10),
)
@settings(max_examples=15, deadline=None)
def test_random_programs_clock_monotone(size, ops):
    """With a network attached, clocks never regress and end >= 0."""

    def program(comm):
        last = comm.clock
        checkpoints = []
        for step, kind in enumerate(ops):
            _program_step(comm, step, kind)
            now = comm.clock
            checkpoints.append(now >= last)
            last = now
        return all(checkpoints)

    def _program_step(comm, step, kind):
        v = _input(comm.rank, step)
        if kind == "allreduce":
            comm.allreduce(v)
        elif kind == "allgather":
            comm.allgather(v)
        elif kind == "bcast":
            comm.bcast(v if comm.rank == 0 else None)
        elif kind == "gather":
            comm.gather(v)
        elif kind == "alltoall":
            comm.alltoall([v] * comm.size)
        elif kind == "barrier":
            comm.barrier()

    res = run_spmd(program, size, network=sunway_network(size), timeout=60)
    assert all(res.returns)
    assert res.simulated_time >= 0.0


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=30))
@settings(max_examples=10, deadline=None)
def test_p2p_ring_passes_token(size, rounds):
    """A token circulating a ring accumulates every rank's contribution."""

    def program(comm):
        nxt = (comm.rank + 1) % comm.size
        prev = (comm.rank - 1) % comm.size
        token = 0
        for _ in range(rounds):
            if comm.rank == 0:
                comm.send(token + 1, dest=nxt)
                token = comm.recv(source=prev)
            else:
                token = comm.recv(source=prev)
                comm.send(token + 1, dest=nxt)
        return token

    res = run_spmd(program, size, timeout=60)
    assert res.returns[0] == rounds * size
