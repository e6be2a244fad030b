"""MoDa group construction and data-parallel gradient sync."""

import numpy as np
import pytest

from repro.errors import CommunicatorError, ConfigError
from repro.models import Linear, Parameter
from repro.parallel import (
    ParallelLayout,
    allreduce_gradients,
    broadcast_parameters,
    build_groups,
    flatten_grads,
    unflatten_grads,
)
from repro.simmpi import run_spmd


class TestLayoutAsGrid:
    """The dp x ep grid is a :class:`ParallelLayout` with tp = pp = 1."""

    def test_basic_layout(self):
        layout = ParallelLayout(world_size=8, ep_size=4)
        assert layout.num_ep_groups == 2
        assert layout.dp_index_of(5) == 1
        assert layout.ep_rank_of(5) == 1

    def test_ep_must_divide_world(self):
        with pytest.raises(ConfigError):
            ParallelLayout(world_size=6, ep_size=4)

    def test_degenerate_grids(self):
        assert ParallelLayout(1, 1).num_ep_groups == 1
        assert ParallelLayout(8, 1).num_ep_groups == 8
        assert ParallelLayout(8, 8).num_ep_groups == 1


class TestBuildGroups:
    def test_group_shapes(self):
        def program(comm):
            g = build_groups(comm, ep_size=2)
            return (g.ep.size, g.edp.size, g.ep_rank, g.edp_rank, g.layout)

        res = run_spmd(program, 6)
        for r, (ep_size, edp_size, ep_rank, edp_rank, layout) in enumerate(res.returns):
            assert layout == ParallelLayout(world_size=6, ep_size=2)
            assert ep_size == 2
            assert edp_size == 3
            # Communicator rank == layout coordinate.
            assert ep_rank == layout.ep_rank_of(r) == r % 2
            assert edp_rank == layout.dp_index_of(r) == r // 2

    def test_ep_group_members_consecutive(self):
        def program(comm):
            g = build_groups(comm, ep_size=4)
            return g.ep.members

        res = run_spmd(program, 8)
        assert res.returns[0] == (0, 1, 2, 3)
        assert res.returns[5] == (4, 5, 6, 7)

    def test_edp_group_members_strided(self):
        def program(comm):
            g = build_groups(comm, ep_size=4)
            return g.edp.members

        res = run_spmd(program, 8)
        assert res.returns[1] == (1, 5)

    def test_world_is_original_comm(self):
        def program(comm):
            g = build_groups(comm, ep_size=1)
            return g.world is comm

        assert all(run_spmd(program, 4).returns)


class TestGradFlattening:
    def _params(self):
        a = Parameter(np.zeros((2, 3)))
        b = Parameter(np.zeros(4))
        return [a, b]

    def test_roundtrip(self):
        params = self._params()
        params[0].grad = np.arange(6, dtype=np.float32).reshape(2, 3)
        params[1].grad = np.arange(4, dtype=np.float32)
        flat = flatten_grads(params)
        assert flat.shape == (10,)
        params[0].grad = None
        params[1].grad = None
        unflatten_grads(params, flat)
        assert np.allclose(params[0].grad, np.arange(6).reshape(2, 3))
        assert np.allclose(params[1].grad, np.arange(4))

    def test_missing_grads_become_zero(self):
        params = self._params()
        params[0].grad = np.ones((2, 3), dtype=np.float32)
        flat = flatten_grads(params)
        assert np.allclose(flat[6:], 0.0)

    def test_wrong_size_rejected(self):
        with pytest.raises(CommunicatorError):
            unflatten_grads(self._params(), np.zeros(3, dtype=np.float32))


class TestAllreduceGradients:
    def test_averages_across_ranks(self):
        def program(comm):
            p = Parameter(np.zeros(4))
            p.grad = np.full(4, float(comm.rank), dtype=np.float32)
            nbytes = allreduce_gradients(comm, [p], average=True)
            return p.grad.copy(), nbytes

        res = run_spmd(program, 4)
        expected = (0 + 1 + 2 + 3) / 4
        for grad, nbytes in res.returns:
            assert np.allclose(grad, expected)
            assert nbytes == 16

    def test_sum_mode(self):
        def program(comm):
            p = Parameter(np.zeros(2))
            p.grad = np.ones(2, dtype=np.float32)
            allreduce_gradients(comm, [p], average=False)
            return p.grad.copy()

        res = run_spmd(program, 3)
        assert np.allclose(res.returns[0], 3.0)

    def test_single_rank_noop(self):
        def program(comm):
            p = Parameter(np.zeros(2))
            p.grad = np.ones(2, dtype=np.float32)
            return allreduce_gradients(comm, [p])

        assert run_spmd(program, 1).returns == [0]

    def test_grads_quantized_to_param_dtype(self):
        def program(comm):
            p = Parameter(np.zeros(2), dtype="fp16")
            p.grad = np.full(2, 1.0 + 2**-12, dtype=np.float32)
            allreduce_gradients(comm, [p], average=True)
            return p.grad.copy()

        res = run_spmd(program, 2)
        from repro.tensor import quantize

        assert np.array_equal(res.returns[0], quantize(res.returns[0], "fp16"))


class TestBroadcastParameters:
    def test_makes_replicas_identical(self):
        def program(comm):
            rng = np.random.default_rng(comm.rank)  # deliberately divergent
            lin = Linear(3, 3, rng)
            broadcast_parameters(comm, lin.parameters(), root=0)
            return lin.weight.data.copy()

        res = run_spmd(program, 4)
        for w in res.returns[1:]:
            assert np.array_equal(w, res.returns[0])

    def test_root_value_wins(self):
        def program(comm):
            p = Parameter(np.full(2, float(comm.rank)))
            broadcast_parameters(comm, [p], root=2)
            return p.data.copy()

        res = run_spmd(program, 4)
        assert all(np.allclose(w, 2.0) for w in res.returns)

    def test_empty_param_list(self):
        def program(comm):
            broadcast_parameters(comm, [], root=0)
            return True

        assert all(run_spmd(program, 2).returns)
