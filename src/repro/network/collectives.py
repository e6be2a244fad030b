"""Analytic cost models for collective operations over a topology.

Each function returns the *time in seconds* for the collective to complete
across a set of leaf nodes, using classic LogP/alpha-beta formulations:

* ring allreduce:        2(p-1) steps of (alpha + (n/p) beta)
* tree (recursive-doubling) allreduce: 2 ceil(log2 p) (alpha + n beta)
* hierarchical allreduce: intra-group ring reduce-scatter / allgather on the
  fast level + inter-group ring on one representative per group
* flat alltoall:         p-1 pairwise messages, contended at the span level
* hierarchical alltoall: intra-group re-bucketing, aggregated inter-group
  exchange (G-1 large messages instead of p-1 small ones), local scatter

The hierarchical variants are the communication contributions reproduced
from BaGuaLu: they trade extra intra-supernode volume for far fewer
latency-bound inter-supernode messages, which wins at scale and loses for
very large per-pair payloads — producing the crossover that experiment F3
demonstrates.

A formula sees a group only through its *shape*: the number of distinct
nodes ``p`` and the link at their span level, which is the span of the
smallest and largest member (:mod:`repro.network.topology`). The
hierarchical variants also need, per unit at the grouping level, the member
count and the link those members span; :func:`_unit_shapes` finds each
unit's boundary by bisection on the sorted nodes and keeps the *distinct*
``(count, link)`` pairs, so a 96,000-node ``range`` costs 375 bisections
and is never expanded. The result is a ``max`` over per-unit costs, and
``max`` over equal terms is exact — which is why the formulas below keep
their operations in the order written (``(p - 1) * (latency + chunk *
beta)``): re-associating them, or summing in NumPy, would change the last
bits that the simulated clock and every committed table are pinned to.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from repro.network.links import LinkSpec
from repro.network.topology import Topology

__all__ = [
    "cost_p2p",
    "cost_barrier",
    "cost_bcast",
    "cost_ring_allreduce",
    "cost_tree_allreduce",
    "cost_hierarchical_allreduce",
    "cost_allgather",
    "cost_flat_alltoall",
    "cost_hierarchical_alltoall",
    "cost_gather",
]


def _unique(nodes: Sequence[int]) -> Sequence[int]:
    """Sorted distinct node ids; a ``range`` already is that, unexpanded."""
    if isinstance(nodes, range):
        return nodes if nodes.step > 0 else nodes[::-1]
    return sorted(set(map(int, nodes)))


def _shape(topo: Topology, nodes: Sequence[int]) -> tuple[int, LinkSpec | None]:
    """``(p, link)``: distinct node count and the link at their span level."""
    nodes = _unique(nodes)
    p = len(nodes)
    return p, (topo.link_between(nodes[0], nodes[-1]) if p > 1 else None)


def _unit_shapes(
    topo: Topology, nodes: Sequence[int], level: int
) -> tuple[int, int, set[tuple[int, LinkSpec | None]]]:
    """Split sorted distinct ``nodes`` by ``level`` unit, without listing them.

    Returns ``(num_groups, g_max, shapes)``: the number of non-empty units,
    the largest member count, and the distinct ``(count, link)`` shapes of
    the units' member sets.
    """
    size = topo.group_size(level)
    shapes = set()
    num_groups = g_max = start = 0
    while start < len(nodes):
        first = nodes[start]
        stop = bisect_left(nodes, (first // size + 1) * size, start)
        shapes.add((stop - start, topo.link_between(first, nodes[stop - 1])))
        g_max = max(g_max, stop - start)
        num_groups += 1
        start = stop
    return num_groups, g_max, shapes


def _ring_allreduce(nbytes: float, p: int, link: LinkSpec | None) -> float:
    if p <= 1:
        return 0.0
    chunk = nbytes / p
    return 2.0 * (p - 1) * (link.latency + chunk * link.beta)


def _reduce_scatter(nbytes: float, p: int, link: LinkSpec | None) -> float:
    if p <= 1:
        return 0.0
    chunk = nbytes / p
    return (p - 1) * (link.latency + chunk * link.beta)


def _allgather(nbytes: float, p: int, link: LinkSpec | None) -> float:
    if p <= 1:
        return 0.0
    return (p - 1) * (link.latency + nbytes * link.beta)


def _flat_alltoall(nbytes_per_pair: float, p: int, link: LinkSpec | None) -> float:
    if p <= 1:
        return 0.0
    alpha = (p - 1) * link.latency
    volume = (p - 1) * nbytes_per_pair
    return alpha + volume * link.effective_beta


def cost_p2p(topo: Topology, nbytes: float, src: int, dst: int) -> float:
    """One point-to-point message of ``nbytes`` from src to dst."""
    link = topo.link_between(src, dst)
    if link is None:
        # Same node: model an in-memory copy at a generous 50 GB/s.
        return nbytes / 50e9
    return link.transfer_time(nbytes)


def cost_barrier(topo: Topology, nodes: Sequence[int]) -> float:
    """Dissemination barrier: ceil(log2 p) rounds of zero-byte messages."""
    p, link = _shape(topo, nodes)
    if p <= 1:
        return 0.0
    return math.ceil(math.log2(p)) * link.latency


def cost_bcast(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Binomial-tree broadcast of ``nbytes`` to every node."""
    p, link = _shape(topo, nodes)
    if p <= 1:
        return 0.0
    return math.ceil(math.log2(p)) * link.transfer_time(nbytes)


def cost_ring_allreduce(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Bandwidth-optimal ring allreduce of an ``nbytes`` buffer."""
    return _ring_allreduce(nbytes, *_shape(topo, nodes))


def cost_tree_allreduce(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Recursive-doubling allreduce: latency-optimal, bandwidth-suboptimal."""
    p, link = _shape(topo, nodes)
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return 2.0 * rounds * (link.latency + nbytes * link.beta)


def cost_hierarchical_allreduce(
    topo: Topology, nbytes: float, nodes: Sequence[int], level: int | None = None
) -> float:
    """Two-phase allreduce: intra-group ring + inter-group ring of leaders.

    ``level`` selects the grouping level; by default the level just below
    the span level (i.e. group by the largest unit that still keeps traffic
    on faster links). Falls back to a plain ring when no hierarchy helps.
    """
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    span = topo.span_level(nodes[0], nodes[-1])
    top = topo.link_at(span)
    if level is None:
        level = span - 1
    if level < 0 or span <= 0:
        return _ring_allreduce(nbytes, p, top)
    num_groups, g_max, shapes = _unit_shapes(topo, nodes, level)
    if num_groups <= 1:
        return _ring_allreduce(nbytes, p, top)
    # 2-D torus decomposition: (1) intra-group ring reduce-scatter leaves
    # each node with an nbytes/g reduced chunk; (2) every node runs an
    # inter-group ring allreduce over its own chunk (all chunks move in
    # parallel); (3) intra-group ring allgather reassembles the buffer.
    chunk = nbytes / g_max
    intra_rs = 0.0
    intra_ag = 0.0
    for count, link in shapes:
        intra_rs = max(intra_rs, _reduce_scatter(nbytes, count, link))
        intra_ag = max(intra_ag, _allgather(chunk, count, link))
    # One leader per group: the first and the last sit in different
    # level-(span-1) units, like the group's own ends, so they span ``top``.
    inter = _ring_allreduce(chunk, num_groups, top)
    return intra_rs + inter + intra_ag


def cost_allgather(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Ring allgather where each node contributes ``nbytes``."""
    return _allgather(nbytes, *_shape(topo, nodes))


def cost_gather(topo: Topology, nbytes: float, nodes: Sequence[int]) -> float:
    """Binomial gather of ``nbytes`` per node to a root."""
    p, link = _shape(topo, nodes)
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    # Data volume into the root doubles each round; total volume dominates.
    return rounds * link.latency + (p - 1) * nbytes * link.beta


def cost_flat_alltoall(
    topo: Topology, nbytes_per_pair: float, nodes: Sequence[int]
) -> float:
    """Pairwise-exchange alltoall: every node sends p-1 direct messages.

    Traffic crossing the span level is contended (bandwidth taper applies),
    and the latency term scales with p — this is exactly what kills flat
    alltoall at supercomputer scale.
    """
    return _flat_alltoall(nbytes_per_pair, *_shape(topo, nodes))


def cost_hierarchical_alltoall(
    topo: Topology,
    nbytes_per_pair: float,
    nodes: Sequence[int],
    level: int | None = None,
) -> float:
    """Supernode-aggregated alltoall (the BaGuaLu-style optimization).

    With p nodes in G groups of g, per-pair payload m:

    1. intra-group alltoall re-bucketing data by destination group
       (per-pair size ~ m * G, fast link);
    2. inter-group exchange of aggregated buffers: each node sends G-1
       messages of size g*m instead of p-1 messages of size m;
    3. intra-group alltoall delivering received buckets (per-pair ~ m * G).

    The inter-group latency term drops from (p-1) alpha to (G-1) alpha.
    """
    nodes = _unique(nodes)
    p = len(nodes)
    if p <= 1:
        return 0.0
    span = topo.span_level(nodes[0], nodes[-1])
    top = topo.link_at(span)
    if level is None:
        level = span - 1
    if level < 0 or span <= 0:
        return _flat_alltoall(nbytes_per_pair, p, top)
    num_groups, g_max, shapes = _unit_shapes(topo, nodes, level)
    if num_groups <= 1 or num_groups == p:
        return _flat_alltoall(nbytes_per_pair, p, top)
    m = nbytes_per_pair
    # Phase 1 & 3: intra-group alltoalls with per-pair payload m * G.
    intra = 0.0
    for count, link in shapes:
        intra = max(intra, _flat_alltoall(m * num_groups, count, link))
    # Phase 2: each node exchanges aggregated buffers with peer groups.
    alpha = (num_groups - 1) * top.latency
    volume = (num_groups - 1) * g_max * m
    inter = alpha + volume * top.effective_beta
    return 2.0 * intra + inter
