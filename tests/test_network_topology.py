"""Tests for repro.network: links and hierarchical topology."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, TopologyError
from repro.network import (
    LinkSpec,
    Topology,
    flat_topology,
    sunway_topology,
    two_level_topology,
)


class TestLinkSpec:
    def test_beta_is_inverse_bandwidth(self):
        link = LinkSpec(latency=1e-6, bandwidth=1e9)
        assert link.beta == pytest.approx(1e-9)

    def test_transfer_time(self):
        link = LinkSpec(latency=1e-6, bandwidth=1e9)
        assert link.transfer_time(1000) == pytest.approx(1e-6 + 1e-6)

    def test_contended_transfer_uses_effective_bandwidth(self):
        link = LinkSpec(latency=0.0, bandwidth=1e9, oversubscription=4.0)
        assert link.latency + 1000 * link.effective_beta == pytest.approx(4e-6)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            LinkSpec(latency=-1.0, bandwidth=1e9)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            LinkSpec(latency=0.0, bandwidth=0.0)

    def test_oversubscription_below_one_rejected(self):
        with pytest.raises(ConfigError):
            LinkSpec(latency=0.0, bandwidth=1e9, oversubscription=0.5)


def _two_level(g=4, n=3):
    return two_level_topology(group_size=g, num_groups=n)


class TestTopology:
    def test_num_nodes(self):
        assert _two_level(4, 3).num_nodes == 12

    def test_coords_roundtrip(self):
        topo = _two_level(4, 3)
        for node in range(topo.num_nodes):
            inner, outer = topo.coords(node)
            assert inner + 4 * outer == node

    def test_coords_innermost_first(self):
        topo = _two_level(4, 3)
        assert topo.coords(5) == (1, 1)  # node 5 = group 1, position 1

    def test_span_level_same_node(self):
        assert _two_level().span_level(3, 3) == -1

    def test_span_level_same_group(self):
        assert _two_level().span_level(0, 3) == 0

    def test_span_level_cross_group(self):
        assert _two_level().span_level(0, 4) == 1

    def test_span_level_of_set(self):
        topo = _two_level()
        assert topo.span_level_of([0, 1, 2]) == 0
        assert topo.span_level_of([0, 5]) == 1
        assert topo.span_level_of([7]) == -1

    def test_group_of(self):
        topo = _two_level(4, 3)
        assert topo.group_of(0, 0) == 0
        assert topo.group_of(4, 0) == 1
        assert topo.group_of(11, 0) == 2

    def test_group_size(self):
        topo = _two_level(4, 3)
        assert topo.group_size(0) == 4
        assert topo.group_size(1) == 12
        assert topo.num_groups(0) == 3

    def test_link_between_same_node_is_none(self):
        assert _two_level().link_between(2, 2) is None

    def test_link_between_levels(self):
        topo = _two_level()
        intra = topo.link_between(0, 1)
        inter = topo.link_between(0, 4)
        assert intra is topo.levels[0].link
        assert inter is topo.levels[1].link

    def test_node_out_of_range(self):
        with pytest.raises(TopologyError):
            _two_level().coords(100)

    def test_bad_level(self):
        with pytest.raises(TopologyError):
            _two_level().link_at(5)

    def test_empty_levels_rejected(self):
        with pytest.raises(TopologyError):
            Topology([])

    @given(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=8))
    def test_span_symmetry(self, g, n):
        topo = two_level_topology(g, n)
        a, b = 0, topo.num_nodes - 1
        assert topo.span_level(a, b) == topo.span_level(b, a)


class TestPresets:
    def test_sunway_small_is_flat(self):
        topo = sunway_topology(64)
        assert topo.num_levels == 1
        assert topo.num_nodes == 64

    def test_sunway_large_has_supernodes(self):
        topo = sunway_topology(1024, supernode_size=256)
        assert topo.num_levels == 2
        assert topo.num_nodes == 1024
        assert topo.group_size(0) == 256

    def test_sunway_headline_machine(self):
        topo = sunway_topology(96_000)
        assert topo.num_nodes >= 96_000

    def test_sunway_invalid(self):
        with pytest.raises(TopologyError):
            sunway_topology(0)

    def test_flat_topology(self):
        topo = flat_topology(8)
        assert topo.num_levels == 1
        assert topo.span_level(0, 7) == 0

    def test_sunway_cross_supernode_slower_link(self):
        topo = sunway_topology(512, supernode_size=256)
        intra = topo.link_between(0, 1)
        inter = topo.link_between(0, 256)
        assert inter.latency > intra.latency
        assert inter.oversubscription > intra.oversubscription


class TestCabinetTopology:
    def test_three_levels(self):
        from repro.network import cabinet_topology

        topo = cabinet_topology(nodes_per_supernode=4, supernodes_per_cabinet=2,
                                num_cabinets=3)
        assert topo.num_levels == 3
        assert topo.num_nodes == 24

    def test_span_levels_across_hierarchy(self):
        from repro.network import cabinet_topology

        topo = cabinet_topology(4, 2, 3)
        assert topo.span_level(0, 1) == 0    # same supernode
        assert topo.span_level(0, 4) == 1    # same cabinet, other supernode
        assert topo.span_level(0, 8) == 2    # other cabinet

    def test_latency_grows_up_the_hierarchy(self):
        from repro.network import cabinet_topology

        topo = cabinet_topology(4, 2, 3)
        l0 = topo.link_between(0, 1).latency
        l1 = topo.link_between(0, 4).latency
        l2 = topo.link_between(0, 8).latency
        assert l0 < l1 < l2

    def test_hierarchical_collectives_work_on_three_levels(self):
        from repro.network import cabinet_topology
        from repro.network.collectives import (
            cost_hierarchical_allreduce,
            cost_hierarchical_alltoall,
            cost_ring_allreduce,
            cost_flat_alltoall,
        )

        topo = cabinet_topology(8, 4, 4)  # 128 nodes
        shape = topo.group_shape(list(range(topo.num_nodes)))
        # Hierarchical variants beat flat at this scale for small payloads.
        assert cost_hierarchical_alltoall(shape, 256) < cost_flat_alltoall(shape, 256)
        assert cost_hierarchical_allreduce(shape, 1e7) < cost_ring_allreduce(shape, 1e7)

    def test_invalid_arity(self):
        from repro.errors import TopologyError
        from repro.network import cabinet_topology

        with pytest.raises(TopologyError):
            cabinet_topology(0, 1, 1)
