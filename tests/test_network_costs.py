"""Tests for the collective cost models — the analytic heart of the repro.

Beyond unit correctness, these lock in the *shapes* the paper's
communication contributions rely on:

* hierarchical alltoall beats flat at scale / small messages and loses the
  advantage for huge payloads (the F3 crossover);
* ring allreduce is bandwidth-optimal, tree is latency-optimal;
* hierarchical allreduce beats both on a multi-supernode machine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    NetworkModel,
    check_algorithm_names,
    flat_network,
    sunway_network,
    sunway_topology,
    two_level_topology,
)
from repro.network.collectives import (
    cost_allgather,
    cost_barrier,
    cost_bcast,
    cost_flat_alltoall,
    cost_gather,
    cost_hierarchical_alltoall,
    cost_hierarchical_allreduce,
    cost_p2p,
    cost_ring_allreduce,
    cost_tree_allreduce,
    _reduce_scatter,
)


@pytest.fixture
def topo():
    return two_level_topology(group_size=8, num_groups=8)


NODES = list(range(64))
INTRA = list(range(8))


class TestBasicCosts:
    def test_p2p_same_node_is_cheap_copy(self, topo):
        assert cost_p2p(topo, 1e6, 3, 3) < cost_p2p(topo, 1e6, 0, 1)

    def test_p2p_cross_group_slower(self, topo):
        assert cost_p2p(topo, 1e6, 0, 8) > cost_p2p(topo, 1e6, 0, 1)

    def test_barrier_single_rank_free(self, topo):
        assert cost_barrier(topo.group_shape([5])) == 0.0

    def test_barrier_grows_logarithmically(self, topo):
        t8 = cost_barrier(topo.group_shape(NODES[:8]))
        t64 = cost_barrier(topo.group_shape(NODES))
        assert t64 > t8
        # log2(64)/log2(8) = 2, but the 64-node barrier crosses groups.
        assert t64 < 20 * t8

    def test_bcast_scales_with_bytes(self, topo):
        shape = topo.group_shape(NODES)
        assert cost_bcast(shape, 1e6) > cost_bcast(shape, 1e3)

    def test_zero_participants_edge(self, topo):
        assert cost_ring_allreduce(topo.group_shape([]), 100) == 0.0
        assert cost_flat_alltoall(topo.group_shape([3]), 100) == 0.0


class TestAllreduceShapes:
    def test_ring_beats_tree_for_large_buffers(self, topo):
        big = 100e6
        shape = topo.group_shape(INTRA)
        assert cost_ring_allreduce(shape, big) < cost_tree_allreduce(shape, big)

    def test_tree_beats_ring_for_tiny_buffers_many_nodes(self, topo):
        tiny = 8.0
        shape = topo.group_shape(NODES)
        assert cost_tree_allreduce(shape, tiny) < cost_ring_allreduce(shape, tiny)

    def test_hierarchical_beats_flat_ring_cross_group(self, topo):
        nbytes = 10e6
        shape = topo.group_shape(NODES)
        assert cost_hierarchical_allreduce(shape, nbytes) < cost_ring_allreduce(shape, nbytes)

    def test_hierarchical_falls_back_within_group(self, topo):
        nbytes = 1e6
        shape = topo.group_shape(INTRA)
        assert cost_hierarchical_allreduce(shape, nbytes) == cost_ring_allreduce(shape, nbytes)

    @given(st.floats(min_value=1.0, max_value=1e9))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_costs_positive_and_finite(self, nbytes):
        topo = two_level_topology(4, 4)
        shape = topo.group_shape(list(range(16)))
        for fn in (cost_ring_allreduce, cost_tree_allreduce, cost_hierarchical_allreduce):
            t = fn(shape, nbytes)
            assert 0.0 < t < 1e6

    @given(st.floats(min_value=1.0, max_value=1e8), st.floats(min_value=2.0, max_value=1e8))
    @settings(max_examples=30, deadline=None)
    def test_allreduce_monotone_in_bytes(self, a, b):
        topo = two_level_topology(4, 4)
        shape = topo.group_shape(list(range(16)))
        lo, hi = min(a, b), max(a, b)
        assert cost_ring_allreduce(shape, lo) <= cost_ring_allreduce(shape, hi)


class TestAlltoallShapes:
    def test_hierarchical_wins_small_messages_at_scale(self):
        """The headline communication result: fewer inter-group messages."""
        topo = sunway_topology(4096, supernode_size=256)
        nodes = list(range(4096))
        m = 4096.0  # 4 KiB per pair: latency-dominated
        flat = cost_flat_alltoall(topo.group_shape(nodes), m)
        hier = cost_hierarchical_alltoall(topo.group_shape(nodes), m)
        assert hier < flat

    def test_flat_competitive_for_huge_messages(self, topo):
        """Crossover: aggregation overhead loses for bandwidth-bound sizes."""
        nodes = NODES
        m = 64e6
        flat = cost_flat_alltoall(topo.group_shape(nodes), m)
        hier = cost_hierarchical_alltoall(topo.group_shape(nodes), m)
        assert flat < hier

    def test_hierarchical_falls_back_within_group(self, topo):
        m = 1e4
        shape = topo.group_shape(INTRA)
        assert cost_hierarchical_alltoall(shape, m) == cost_flat_alltoall(shape, m)

    def test_alltoall_latency_term_scales_with_p(self, topo):
        tiny = 1.0
        t8 = cost_flat_alltoall(topo.group_shape(NODES[:8]), tiny)
        t64 = cost_flat_alltoall(topo.group_shape(NODES), tiny)
        assert t64 > 4 * t8  # (p-1) alpha growth

    @given(st.floats(min_value=1.0, max_value=1e7))
    @settings(max_examples=30, deadline=None)
    def test_alltoall_costs_positive(self, m):
        topo = two_level_topology(4, 4)
        nodes = list(range(16))
        assert cost_flat_alltoall(topo.group_shape(nodes), m) > 0
        assert cost_hierarchical_alltoall(topo.group_shape(nodes), m) > 0


class TestOtherCollectives:
    def test_reduce_scatter_half_of_ring_allreduce(self, topo):
        """The ring reduce-scatter that is the first phase of the
        hierarchical allreduce is half a ring allreduce."""
        nbytes = 1e6
        shape = topo.group_shape(INTRA)
        rs = _reduce_scatter(nbytes, shape.p, shape.link)
        ar = cost_ring_allreduce(shape, nbytes)
        assert rs == pytest.approx(ar / 2)

    def test_allgather_equals_gather_order(self, topo):
        nbytes = 1e5
        assert cost_allgather(topo.group_shape(INTRA), nbytes) > 0
        assert cost_gather(topo.group_shape(INTRA), nbytes) > 0


class TestNetworkModel:
    def test_auto_policy_picks_minimum(self):
        net = sunway_network(1024)
        nbytes = 1e6
        ranks = list(range(1024))
        auto = net.allreduce_time(nbytes, ranks)
        assert auto <= net.allreduce_time(nbytes, ranks, algorithm="ring")
        assert auto <= net.allreduce_time(nbytes, ranks, algorithm="tree")
        assert auto <= net.allreduce_time(nbytes, ranks, algorithm="hierarchical")

    def test_forced_algorithm_respected(self):
        net = sunway_network(1024)
        ranks = list(range(1024))
        ring = net.allreduce_time(1e6, ranks, algorithm="ring")
        tree = net.allreduce_time(1e6, ranks, algorithm="tree")
        assert ring != tree

    def test_invalid_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            check_algorithm_names(allreduce="magic", alltoall=None)
        with pytest.raises(ConfigError):
            check_algorithm_names(allreduce=None, alltoall="magic")

    def test_rank_to_node_default_mapping_wraps(self):
        net = flat_network(4)
        assert net.node(0) == 0
        assert net.node(5) == 1  # 5 % 4

    def test_custom_rank_mapping(self):
        net = NetworkModel(topology=sunway_topology(16), node_of_rank=lambda r: 15 - r)
        assert net.node(0) == 15

    def test_p2p_time_positive(self):
        net = sunway_network(512)
        assert net.p2p_time(1e6, 0, 300) > net.p2p_time(1e6, 0, 1)
