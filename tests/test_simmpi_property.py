"""Property-based tests: simulated collectives vs NumPy reference semantics."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simmpi import SUM, payload_nbytes, clone_payload, run_spmd

sizes = st.integers(min_value=1, max_value=6)
payload_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
)


@given(sizes, st.integers(min_value=0, max_value=100))
@settings(max_examples=15, deadline=None)
def test_allreduce_matches_numpy_sum(size, base):
    def program(comm):
        x = np.arange(4, dtype=np.float64) + comm.rank + base
        return comm.allreduce(x, op=SUM)

    res = run_spmd(program, size)
    expected = sum(np.arange(4, dtype=np.float64) + r + base for r in range(size))
    for out in res.returns:
        assert np.allclose(out, expected)


@given(sizes)
@settings(max_examples=10, deadline=None)
def test_allgather_matches_identity(size):
    res = run_spmd(lambda c: c.allgather(c.rank), size)
    for out in res.returns:
        assert out == list(range(size))


@given(sizes, st.integers(min_value=0, max_value=5))
@settings(max_examples=15, deadline=None)
def test_alltoall_is_transpose(size, seed):
    """alltoall(alltoall(M)) with symmetric pattern == matrix transpose."""

    def program(comm):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 100, size=(size, size))
        row = list(matrix[comm.rank])
        got = comm.alltoall(row)
        return got, list(matrix[:, comm.rank])

    res = run_spmd(program, size)
    for got, expected_col in res.returns:
        assert [int(g) for g in got] == [int(e) for e in expected_col]


@given(sizes)
@settings(max_examples=10, deadline=None)
def test_alltoall_roundtrip_identity(size):
    """Sending data out and alltoall-ing it back restores the original."""

    def program(comm):
        orig = [np.full(3, comm.rank * comm.size + d) for d in range(comm.size)]
        there = comm.alltoall(orig)
        back = comm.alltoall(there)
        # back[d] came from rank d and contains what rank d got from me,
        # which is what I originally addressed to d.
        return all(np.array_equal(back[d], orig[d]) for d in range(comm.size))

    res = run_spmd(program, size)
    assert all(res.returns)


@given(payload_lists)
@settings(max_examples=25, deadline=None)
def test_clone_payload_deep_copies_lists(values):
    src = [np.asarray(values), {"k": values}]
    dst = clone_payload(src)
    assert np.allclose(dst[0], src[0])
    dst[0][0] = 1e9
    assert src[0][0] != 1e9 or values[0] == 1e9


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_payload_nbytes_ndarray_exact(n):
    arr = np.zeros(min(n, 1000), dtype=np.float32)
    assert payload_nbytes(arr) == arr.nbytes


def test_payload_nbytes_structures():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(b"abcd") == 4
    assert payload_nbytes("ab") == 2
    assert payload_nbytes(3.14) == 8
    assert payload_nbytes([1, 2]) == 8 + 16
    assert payload_nbytes({"a": 1}) == 8 + 1 + 8
