"""Process-group construction and data-parallel gradient sync."""

import functools

import numpy as np
import pytest

from repro.errors import CommunicatorError, ConfigError
from repro.models import Linear, Parameter
from repro.parallel import (
    ParallelLayout,
    broadcast_parameters,
    build_groups,
    flatten_grads,
    unflatten_grads,
)
from repro.parallel.dp import PendingGradAllreduce
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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


#: Every layout of worlds 1-8: each pp dividing the world, each tp x ep
#: tiling the stage plane, and every ZeRO block size up to the plane.
LAYOUTS = [
    ParallelLayout(world, ep, tp, pp, zero)
    for world in range(1, 9)
    for pp in _divisors(world)
    for tp in _divisors(world // pp)
    for ep in _divisors(world // pp // tp)
    for zero in range(1, world // pp + 1)
]

#: Communicator -> (the coordinates its members share with this rank, the
#: coordinate it orders them by).
SPANS = {
    "plane": (("stage",), "plane_rank"),
    "pipe": (("ep", "tp", "dp"), "stage"),
    "ep": (("stage", "tp", "dp"), "ep"),
    "edp": (("stage", "ep"), "ep_group"),
    "tp": (("stage", "ep", "dp"), "tp"),
    "tpdp": (("stage", "tp"), "plane_rank"),
    "zero": (("stage", "zero_block"), "plane_rank"),
}


def _coordinates(layout: ParallelLayout, r: int) -> dict[str, int]:
    plane_rank = r % layout.plane_size
    return {
        "stage": layout.stage_of(r),
        "plane_rank": plane_rank,
        "ep": layout.ep_rank_of(r),
        "tp": layout.tp_rank_of(r),
        "dp": layout.dp_index_of(r),
        "ep_group": plane_rank // layout.ep_size,
        "zero_block": plane_rank // layout.zero_shards,
    }


def _present(layout: ParallelLayout) -> set[str]:
    axes = {"plane", "ep", "edp"}
    if layout.pp_size > 1:
        axes.add("pipe")
    if layout.tp_size > 1:
        axes |= {"tp", "tpdp"}
    if layout.zero_shards > 1:
        axes.add("zero")
    return axes


@functools.cache
def _built(layout: ParallelLayout) -> list[dict]:
    """Per rank: each communicator's (members, rank) or None, and identities."""

    def program(comm):
        g = build_groups(comm, layout)
        out = {name: None if getattr(g, name) is None
               else (getattr(g, name).members, getattr(g, name).rank) for name in SPANS}
        out["world is comm"] = g.world is comm
        out["plane is world"] = g.plane is g.world
        return out

    return run_spmd(program, layout.world_size).returns


class TestBuildGroups:
    """The one builder, against the layout's rank coordinates."""

    def test_members_are_layout_coordinates(self):
        for layout in LAYOUTS:
            coords = [_coordinates(layout, q) for q in range(layout.world_size)]
            for r, built in enumerate(_built(layout)):
                for name in _present(layout):
                    shared, key = SPANS[name]
                    want = tuple(sorted(
                        (q for q, c in enumerate(coords)
                         if all(c[s] == coords[r][s] for s in shared)),
                        key=lambda q: coords[q][key],
                    ))
                    assert built[name] == (want, want.index(r)), (layout.describe(), r, name)

    def test_absent_axes_are_none(self):
        for layout in LAYOUTS:
            for built in _built(layout):
                for name in set(SPANS) - _present(layout):
                    assert built[name] is None, (layout.describe(), name)

    def test_world_is_original_comm(self):
        for layout in LAYOUTS:
            for built in _built(layout):
                assert built["world is comm"]
                assert built["plane is world"] == (layout.pp_size == 1), layout.describe()

    def test_group_shapes(self):
        def program(comm):
            g = build_groups(comm, ParallelLayout(world_size=comm.size, ep_size=2))
            return (g.ep.size, g.edp.size, g.ep_rank, g.edp.rank, g.layout)

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
            g = build_groups(comm, ParallelLayout(world_size=comm.size, ep_size=4))
            return g.ep.members

        res = run_spmd(program, 8)
        assert res.returns[0] == (0, 1, 2, 3)
        assert res.returns[5] == (4, 5, 6, 7)

    def test_edp_group_members_strided(self):
        def program(comm):
            g = build_groups(comm, ParallelLayout(world_size=comm.size, ep_size=4))
            return g.edp.members

        res = run_spmd(program, 8)
        assert res.returns[1] == (1, 5)

    def test_layout_must_describe_the_comm(self):
        def program(comm):
            build_groups(comm, ParallelLayout(world_size=4))

        with pytest.raises(ConfigError, match="world_size=4 != comm size 2"):
            run_spmd(program, 2)


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


def _sync(comm, params):
    """One blocking bucket of the gradient sync, waited on at once."""
    return PendingGradAllreduce(comm, params, None, 1, nonblocking=False).wait()


class TestAllreduceGradients:
    def test_averages_across_ranks(self):
        def program(comm):
            p = Parameter(np.zeros(4))
            p.grad = np.full(4, float(comm.rank), dtype=np.float32)
            nbytes = _sync(comm, [p])
            return p.grad.copy(), nbytes

        res = run_spmd(program, 4)
        expected = (0 + 1 + 2 + 3) / 4
        for grad, nbytes in res.returns:
            assert np.allclose(grad, expected)
            assert nbytes == 16

    def test_single_rank_noop(self):
        def program(comm):
            p = Parameter(np.zeros(2))
            p.grad = np.ones(2, dtype=np.float32)
            return _sync(comm, [p])

        assert run_spmd(program, 1).returns == [0]

    def test_grads_quantized_to_param_dtype(self):
        def program(comm):
            p = Parameter(np.zeros(2), dtype="fp16")
            p.grad = np.full(2, 1.0 + 2**-12, dtype=np.float32)
            _sync(comm, [p])
            return p.grad.copy()

        res = run_spmd(program, 2)
        from repro.tensor import quantize

        assert np.array_equal(res.returns[0], quantize(res.returns[0], "fp16"))


class TestBroadcastParameters:
    def test_makes_replicas_identical(self):
        def program(comm):
            rng = np.random.default_rng(comm.rank)  # deliberately divergent
            lin = Linear(3, 3, rng)
            broadcast_parameters(comm, lin.parameters())
            return lin.weight.data.copy()

        res = run_spmd(program, 4)
        for w in res.returns[1:]:
            assert np.array_equal(w, res.returns[0])

    def test_root_value_wins(self):
        def program(comm):
            p = Parameter(np.full(2, float(comm.rank) + 5.0))
            broadcast_parameters(comm, [p])
            return p.data.copy()

        res = run_spmd(program, 4)
        assert all(np.array_equal(w, [5.0, 5.0]) for w in res.returns)

    def test_empty_param_list(self):
        def program(comm):
            broadcast_parameters(comm, [])
            return True

        assert all(run_spmd(program, 2).returns)
