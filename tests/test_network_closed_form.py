"""The closed-form topology spans and group shapes against the walk they replaced.

``repro.network`` prices a group from its two ends and from the distinct
``(count, link)`` shapes of its units. The algorithm it replaced — a
coordinate walk over every member and a dict-of-lists partition — survives
only here, as the brute-force reference: every float must come out
``==``, never ``approx``, because the simulated clock and the committed
tables are pinned to the last bit.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t
from repro.network import NetworkModel, sunway_network
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
    assert C.cost_barrier(topo, group) == ref_barrier(topo, group)
    for name, ref in REFERENCE.items():
        assert getattr(C, name)(topo, nbytes, group) == ref(topo, nbytes, group), name
    for name in HIERARCHICAL:
        for level in range(topo.num_levels):
            got = getattr(C, name)(topo, nbytes, group, level=level)
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
    for name in REFERENCE:
        with pytest.raises(TopologyError):
            getattr(C, name)(topo, 1024.0, group)
    with pytest.raises(TopologyError):
        C.cost_barrier(topo, group)


@pytest.mark.parametrize("group", [range(12), list(range(12))], ids=["range", "list"])
@pytest.mark.parametrize("name", HIERARCHICAL)
def test_level_out_of_range_still_raises(name, group):
    topo = _three_level()
    with pytest.raises(TopologyError):
        getattr(C, name)(topo, 1024.0, group, level=3)
    with pytest.raises(TopologyError):
        REFERENCE[name](topo, 1024.0, group, level=3)
    # A negative level never reaches the partition: plain ring / flat.
    assert getattr(C, name)(topo, 1024.0, group, level=-7) == (
        REFERENCE[name](topo, 1024.0, group, level=-7)
    )


def test_degenerate_groups_have_no_span():
    topo = _three_level()
    for group in ([], [5], [5, 5, 5], range(0), range(4, 5), range(7, 3)):
        assert topo.span_level_of(group) == -1
        assert C.cost_ring_allreduce(topo, 1e6, group) == 0.0
        assert C.cost_hierarchical_alltoall(topo, 1e6, group) == 0.0


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
