"""The closed-form topology spans and group shapes against the walk they replaced.

``repro.network`` prices a group from its two ends and from the distinct
``(count, link)`` shapes of its units. The algorithm it replaced — a
coordinate walk over every member and a dict-of-lists partition — survives
only here, as the brute-force reference: every float must come out
``==``, never ``approx``, because the simulated clock and the committed
tables are pinned to the last bit. A topology keeps each group's shape in a
cache of its own; a warm cache must price exactly like an empty one.
"""

import math
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t
from repro.network import NetworkModel, sunway_network, sunway_topology
from repro.network import collectives as C
from repro.network.links import LinkSpec
from repro.network.topology import Level, Topology
from repro.perf import ParallelPlan, StepModel, weak_scaling_rows

# --------------------------------------------------------------------- #
# Reference: the per-member algorithm, kept literal.
# --------------------------------------------------------------------- #


def ref_span_level(topo, a, b):
    ca, cb = topo.coords(a), topo.coords(b)  # coords() range-checks
    if a == b:
        return -1
    return max(i for i in range(topo.num_levels) if ca[i] != cb[i])


def ref_span_level_of(topo, nodes):
    nodes = list(nodes)
    if len(nodes) <= 1:
        return -1
    return max(ref_span_level(topo, a, b) for a in nodes for b in nodes)


def _ref_group(topo, nodes):
    nodes = sorted(set(int(n) for n in nodes))
    span = ref_span_level_of(topo, nodes)
    return nodes, len(nodes), span, (topo.link_at(span) if span >= 0 else None)


def _ref_partition(topo, nodes, level):
    groups = {}
    for n in nodes:
        groups.setdefault(topo.group_of(n, level), []).append(n)
    return groups


def ref_barrier(topo, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    return 0.0 if p <= 1 else math.ceil(math.log2(p)) * link.latency


def ref_bcast(topo, nbytes, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    return 0.0 if p <= 1 else math.ceil(math.log2(p)) * link.transfer_time(nbytes)


def ref_ring_allreduce(topo, nbytes, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    if p <= 1:
        return 0.0
    chunk = nbytes / p
    return 2.0 * (p - 1) * (link.latency + chunk * link.beta)


def ref_tree_allreduce(topo, nbytes, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return 2.0 * rounds * (link.latency + nbytes * link.beta)


def ref_reduce_scatter(topo, nbytes, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    if p <= 1:
        return 0.0
    chunk = nbytes / p
    return (p - 1) * (link.latency + chunk * link.beta)


def ref_allgather(topo, nbytes, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    return 0.0 if p <= 1 else (p - 1) * (link.latency + nbytes * link.beta)


def ref_gather(topo, nbytes, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return rounds * link.latency + (p - 1) * nbytes * link.beta


def ref_flat_alltoall(topo, nbytes_per_pair, nodes):
    _, p, _, link = _ref_group(topo, nodes)
    if p <= 1:
        return 0.0
    alpha = (p - 1) * link.latency
    volume = (p - 1) * nbytes_per_pair
    return alpha + volume * link.effective_beta


def ref_hierarchical_allreduce(topo, nbytes, nodes, level=None):
    nodes, p, span, _ = _ref_group(topo, nodes)
    if p <= 1:
        return 0.0
    if level is None:
        level = span - 1
    if level < 0 or span <= 0:
        return ref_ring_allreduce(topo, nbytes, nodes)
    groups = _ref_partition(topo, nodes, level)
    if len(groups) <= 1:
        return ref_ring_allreduce(topo, nbytes, nodes)
    g_max = max(len(members) for members in groups.values())
    chunk = nbytes / g_max
    intra_rs = intra_ag = 0.0
    for members in groups.values():
        intra_rs = max(intra_rs, ref_reduce_scatter(topo, nbytes, members))
        intra_ag = max(intra_ag, ref_allgather(topo, chunk, members))
    leaders = [min(members) for members in groups.values()]
    return intra_rs + ref_ring_allreduce(topo, chunk, leaders) + intra_ag


def ref_hierarchical_alltoall(topo, nbytes_per_pair, nodes, level=None):
    nodes, p, span, _ = _ref_group(topo, nodes)
    if p <= 1:
        return 0.0
    if level is None:
        level = span - 1
    if level < 0 or span <= 0:
        return ref_flat_alltoall(topo, nbytes_per_pair, nodes)
    groups = _ref_partition(topo, nodes, level)
    num_groups = len(groups)
    if num_groups <= 1 or num_groups == p:
        return ref_flat_alltoall(topo, nbytes_per_pair, nodes)
    m = nbytes_per_pair
    top = topo.link_at(span)
    intra = 0.0
    for members in groups.values():
        intra = max(intra, ref_flat_alltoall(topo, m * num_groups, members))
    g_max = max(len(members) for members in groups.values())
    alpha = (num_groups - 1) * top.latency
    volume = (num_groups - 1) * g_max * m
    return 2.0 * intra + (alpha + volume * top.effective_beta)


#: Every group-taking function of ``collectives.__all__`` -> its reference.
REFERENCE = {
    "cost_bcast": ref_bcast,
    "cost_ring_allreduce": ref_ring_allreduce,
    "cost_tree_allreduce": ref_tree_allreduce,
    "cost_hierarchical_allreduce": ref_hierarchical_allreduce,
    "cost_allgather": ref_allgather,
    "cost_flat_alltoall": ref_flat_alltoall,
    "cost_hierarchical_alltoall": ref_hierarchical_alltoall,
    "cost_gather": ref_gather,
}
HIERARCHICAL = ("cost_hierarchical_allreduce", "cost_hierarchical_alltoall")

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

_links = st.builds(
    LinkSpec,
    latency=st.sampled_from([0.0, 1.0e-6, 7.0e-6, 1.3e-5]),
    bandwidth=st.sampled_from([3e9, 12.5e9, 16e9]),
    oversubscription=st.sampled_from([1.0, 4.0, 8.0]),
)
topologies = st.lists(
    st.tuples(st.integers(1, 5), _links), min_size=1, max_size=3
).map(lambda lv: Topology([Level(f"l{i}", a, k) for i, (a, k) in enumerate(lv)]))
payloads = st.sampled_from([0.0, 1.0, 1000.0 / 3.0, 2.0**16, 2.0**26, 1.7e9])


@st.composite
def topo_and_range(draw):
    """Contiguous, strided, reversed, empty and singleton in-range ranges."""
    topo = draw(topologies)
    n = topo.num_nodes
    lo, hi, step = draw(st.integers(0, n)), draw(st.integers(0, n)), draw(st.integers(1, n))
    if draw(st.booleans()):
        return topo, range(lo, hi, step)
    return topo, range(lo - 1, hi - 1, -step)


@st.composite
def topo_and_list(draw):
    """Unsorted member lists with duplicates."""
    topo = draw(topologies)
    members = st.integers(0, topo.num_nodes - 1)
    return topo, draw(st.lists(members, max_size=2 * topo.num_nodes + 2))


topo_and_group = st.one_of(topo_and_range(), topo_and_list())


# --------------------------------------------------------------------- #
# Old vs new: spans and every cost function, float for float
# --------------------------------------------------------------------- #


@given(topo_and_group)
@settings(max_examples=300, deadline=None)
def test_span_matches_pairwise_walk(tg):
    topo, group = tg
    assert topo.span_level_of(group) == ref_span_level_of(topo, group)
    assert topo.span_level_of(list(group)) == ref_span_level_of(topo, group)
    for a in list(group)[:3]:
        for b in list(group)[-3:]:
            assert topo.span_level(a, b) == ref_span_level(topo, a, b)


def test_reference_covers_every_group_function():
    assert set(REFERENCE) | {"cost_p2p", "cost_barrier"} == set(C.__all__)


@given(topo_and_group, payloads)
@settings(max_examples=300, deadline=None)
def test_costs_match_per_member_reference(tg, nbytes):
    topo, group = tg
    shape = topo.group_shape(group)
    assert C.cost_barrier(shape) == ref_barrier(topo, group)
    for name, ref in REFERENCE.items():
        assert getattr(C, name)(shape, nbytes) == ref(topo, nbytes, group), name
    for name in HIERARCHICAL:
        for level in range(topo.num_levels):
            got = getattr(C, name)(shape, nbytes, level=level)
            assert got == REFERENCE[name](topo, nbytes, group, level=level), (name, level)


@given(topo_and_range(), payloads)
@settings(max_examples=100, deadline=None)
def test_network_model_prices_a_range_like_its_list(tg, nbytes):
    """``range`` or list is read off the input; the price is the same."""
    topo, group = tg
    dense = NetworkModel(topo)
    remapped = NetworkModel(topo, node_of_rank=lambda r: (r * 7 + 1) % topo.num_nodes)
    for net in (dense, remapped):
        members = [net.node(r) for r in group]
        for algo in ("ring", "tree", "hierarchical", "auto"):
            assert net.allreduce_time(nbytes, group, algo) == net.allreduce_time(
                nbytes, list(group), algo
            )
        assert net.allreduce_time(nbytes, group, "hierarchical") == (
            ref_hierarchical_allreduce(topo, nbytes, members)
        )
        assert net.alltoall_time(nbytes, group) == min(
            ref_flat_alltoall(topo, nbytes, members),
            ref_hierarchical_alltoall(topo, nbytes, members),
        )
        assert net.allgather_time(nbytes, group) == ref_allgather(topo, nbytes, members)
        assert net.barrier_time(group) == ref_barrier(topo, members)


def test_dense_range_is_not_expanded_and_wrapping_ranks_are():
    net = sunway_network(1024)
    everyone = range(1024)
    assert net._nodes(everyone) is everyone
    assert net._nodes(range(1023, -1, -1)) == range(1023, -1, -1)
    # Past the machine rank % num_nodes is no longer the identity.
    assert net._nodes(range(1020, 1030)) == [r % 1024 for r in range(1020, 1030)]
    assert net._nodes(range(0)) == []
    placed = NetworkModel(net.topology, node_of_rank=lambda r: 1023 - r)
    assert placed._nodes(range(3)) == [1023, 1022, 1021]


# --------------------------------------------------------------------- #
# The shape cache: topology facts, never a price, never another's
# --------------------------------------------------------------------- #


def _prices(net, nbytes, group):
    """Every price ``net`` gives ``group``, under every algorithm."""
    return (
        [net.allreduce_time(nbytes, group, algo) for algo in ("ring", "tree", "hierarchical", None)]
        + [net.alltoall_time(nbytes, group, algo) for algo in ("flat", "hierarchical", None)]
        + [net.allgather_time(nbytes, group), net.gather_time(nbytes, group),
           net.bcast_time(nbytes, group), net.barrier_time(group)]
    )


@st.composite
def shared_topology_and_groups(draw):
    """A shared preset instance (warm across examples) and groups on it:
    ascending, descending, stepped and one-node ranges, and member lists."""
    topo = sunway_topology(draw(st.integers(1, 24)), draw(st.integers(1, 6)))
    n = topo.num_nodes
    lo, hi, step = draw(st.integers(0, n - 1)), draw(st.integers(0, n)), draw(st.integers(1, n))
    groups = [range(lo, hi, step), range(hi - 1, lo - 1, -step), range(lo, lo + 1),
              draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))]
    return topo, draw(st.permutations(groups))


@given(shared_topology_and_groups(), payloads)
@settings(max_examples=200, deadline=None)
def test_a_warm_cache_prices_like_an_empty_one(tg, nbytes):
    topo, groups = tg
    warm = NetworkModel(topo)
    for group in groups + groups:  # the second round reads the entries the first made
        fresh = NetworkModel(Topology(topo.levels))
        assert _prices(warm, nbytes, group) == _prices(fresh, nbytes, group)


def test_a_rebuilt_topology_is_never_served_a_dropped_ones_shapes():
    """Topologies of different shapes built one after another, each dropped
    before the next, so that later ones sit where earlier ones did (checked):
    each prices every group like the per-member reference."""
    link_a = LinkSpec(latency=1e-6, bandwidth=16e9)
    link_b = LinkSpec(latency=7e-6, bandwidth=16e9, oversubscription=4.0)
    groups = (range(12), range(0, 12, 3), [0, 5, 6, 11], range(11, 2, -2))
    arity_at, moved_in = {}, 0
    for trial in range(300):
        arity = (1, 2, 3, 4, 6, 12)[trial % 6]
        topo = Topology([Level("a", arity, link_a), Level("b", 12 // arity, link_b)])
        moved_in += arity_at.get(id(topo), arity) != arity
        arity_at[id(topo)] = arity
        for group in groups:
            shape = topo.group_shape(group)
            assert C.cost_hierarchical_allreduce(shape, 1e6) == (
                ref_hierarchical_allreduce(topo, 1e6, group)
            ), (arity, group)
            assert C.cost_hierarchical_alltoall(shape, 1e3) == (
                ref_hierarchical_alltoall(topo, 1e3, group)
            ), (arity, group)
        del topo, shape
    assert moved_in  # a topology did take the place of one of another shape


def test_rank_threads_pricing_one_topology_read_equal_shapes():
    """Eight threads (more than cores) price the same groups on one fresh
    topology with a short switch interval: every price is the cold one."""
    topo = sunway_topology(64, 8)
    groups = [range(0, 64, s) for s in (1, 2, 3, 5, 8)] + [[1, 9, 17, 63], [3, 4, 40]]
    expected = [_prices(NetworkModel(Topology(topo.levels)), 4096.0, g) for g in groups]
    shared = NetworkModel(Topology(topo.levels))
    results = [None] * 8

    def price(i):
        results[i] = [[_prices(shared, 4096.0, g) for g in groups] for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=price, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(rounds == [expected] * 20 for rounds in results)


def test_equal_sunway_machines_share_one_topology():
    assert sunway_topology(1024) is sunway_topology(1024, 256)
    assert sunway_network(1024).topology is sunway_network(1024).topology
    assert sunway_topology(1024, 4) is not sunway_topology(1024)
    assert sunway_topology(512) is not sunway_topology(1024)


# --------------------------------------------------------------------- #
# Error parity
# --------------------------------------------------------------------- #


def _three_level():
    link = LinkSpec(latency=1e-6, bandwidth=1e9)
    return Topology([Level("a", 2, link), Level("b", 3, link), Level("c", 2, link)])


@pytest.mark.parametrize(
    "group",
    [range(0, 13), range(12, -1, -1), range(-1, 5), [3, 12, 0], [0, 3, -1]],
    ids=repr,
)
def test_out_of_range_member_raises_for_range_and_list(group):
    topo = _three_level()  # 12 nodes
    for span_of in (ref_span_level_of, Topology.span_level_of):
        with pytest.raises(TopologyError):
            span_of(topo, group)
        with pytest.raises(TopologyError):
            span_of(topo, [12, 12])
    with pytest.raises(TopologyError):
        topo.group_shape(group)
    net = NetworkModel(topo, node_of_rank=lambda r: r)
    with pytest.raises(TopologyError):
        net.allreduce_time(1024.0, group)
    with pytest.raises(TopologyError):
        net.barrier_time(group)


@pytest.mark.parametrize("group", [range(12), list(range(12))], ids=["range", "list"])
@pytest.mark.parametrize("name", HIERARCHICAL)
def test_level_out_of_range_still_raises(name, group):
    topo = _three_level()
    with pytest.raises(TopologyError):
        getattr(C, name)(topo.group_shape(group), 1024.0, level=3)
    with pytest.raises(TopologyError):
        REFERENCE[name](topo, 1024.0, group, level=3)
    # A negative level never reaches the partition: plain ring / flat.
    assert getattr(C, name)(topo.group_shape(group), 1024.0, level=-7) == (
        REFERENCE[name](topo, 1024.0, group, level=-7)
    )


def test_degenerate_groups_have_no_span():
    topo = _three_level()
    for group in ([], [5], [5, 5, 5], range(0), range(4, 5), range(7, 3)):
        assert topo.span_level_of(group) == -1
        assert C.cost_ring_allreduce(topo.group_shape(group), 1e6) == 0.0
        assert C.cost_hierarchical_alltoall(topo.group_shape(group), 1e6) == 0.0


# --------------------------------------------------------------------- #
# Paper scale: pinned floats and no materialised rank lists
# --------------------------------------------------------------------- #

FULL_MACHINE = 96_000

#: ``bench/plan.py``'s projection (14.5T, micro-batch 8, seq 2048, load
#: imbalance 1.05), generated on the per-member implementation before it
#: was replaced: (nodes, step_time_s, tokens_per_s, flops, efficiency).
PINNED_WEAK_SCALING = [
    (256, 92.98457215587304, 45107.5259341835, 3292782290608310.5, 1.0),
    (1024, 99.39119990471103, 168799.81342497887, 1.232213527105781e16, 0.9355412978716406),
    (4096, 101.08923168592052, 663857.6916728785, 4.846062392812398e16, 0.9198266779271973),
    (16384, 101.4719552952229, 2645415.2304349793, 1.931113764650209e17, 0.9163573510074126),
    (49152, 101.71634365284565, 7917177.703009879, 5.779421946153297e17, 0.9141556687608253),
    (96000, 101.98207535610561, 15422945.596153075, 1.1258520851293843e18, 0.9117736801411948),
]


def test_weak_scaling_projection_is_bit_identical_to_the_pinned_rows():
    rows = weak_scaling_rows(
        bagualu_14_5t(), sunway_machine(FULL_MACHINE), [r[0] for r in PINNED_WEAK_SCALING],
        ep_size=FULL_MACHINE, micro_batch=8, seq_len=2048, load_imbalance=1.05,
    )
    got = [
        (r["nodes"], r["step_time_s"], r["tokens_per_s"], r["flops"], r["efficiency"])
        for r in rows
    ]
    assert got == PINNED_WEAK_SCALING
    assert rows[-1]["flops"] / 1e18 == 1.1258520851293843


def _peak_bytes(call):
    call()  # warm: imports, interned constants
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_machine_queries_do_not_materialise_their_ranks():
    """A 96,000-rank list is ~3.8 MB; pricing one must stay under 64 KiB."""
    network = sunway_network(FULL_MACHINE)
    everyone = range(FULL_MACHINE)
    model = StepModel(bagualu_14_5t(), sunway_machine(FULL_MACHINE), network)
    plan = ParallelPlan(num_nodes=FULL_MACHINE, ep_size=FULL_MACHINE,
                        micro_batch=8, seq_len=2048, load_imbalance=1.05)
    for call in (
        lambda: network.allreduce_time(2**26, everyone),
        lambda: network.alltoall_time(2**16, everyone),
        lambda: model.step_breakdown(plan),
    ):
        assert _peak_bytes(call) < 64 * 1024
