"""Hierarchical machine topology.

The New Generation Sunway interconnect is modelled as a tree of levels:
nodes live in *supernodes* (256 nodes each, fully connected by fast
electrical links), supernodes are joined by a tapered optical fat-tree.
We represent the machine as an ordered list of :class:`Level` objects,
innermost first; a node id maps to mixed-radix coordinates over the level
arities, and the cost of communication between two nodes is governed by the
outermost level whose coordinate differs (the *span level*).

Spans are closed forms, not walks. Two nodes differ at level ``l`` or above
exactly when they sit in different children of a level-``l`` unit, i.e. when
``a // child_size[l] != b // child_size[l]`` (``child_size[0] == 1``), so
:meth:`Topology.span_level` is one integer division per level on sizes
computed once. The child index is monotone in the node id, so every member
of a group lies between the group's smallest and largest id and
:meth:`Topology.span_level_of` is the span of those two ends — O(levels)
once they are found, and a ``range`` hands them over in O(1).

A collective's price reads a group only through its :class:`GroupShape`,
which :meth:`Topology.group_shape` derives once per node group and keeps in
a cache the topology holds. The cache holds topology facts, never a price
(whose bytes change with every plan), and it lives and dies with its
topology, which is immutable.

This abstraction also covers flat clusters (a single level) and arbitrary
multi-level hierarchies used in tests.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from repro.errors import TopologyError
from repro.network.links import LinkSpec

__all__ = ["GroupShape", "Level", "Topology"]


@dataclass(frozen=True)
class Level:
    """One level of the topology tree.

    Parameters
    ----------
    name:
        Human-readable label ("node", "supernode", "cabinet"...).
    arity:
        How many children of the previous level fit in one unit of this
        level. The innermost level's arity is the number of leaf nodes per
        first-level group.
    link:
        The link traversed by traffic that crosses between siblings at this
        level (i.e. whose span level is this one).
    """

    name: str
    arity: int
    link: LinkSpec

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise TopologyError(f"level {self.name!r} arity must be >= 1, got {self.arity}")


#: One grouping level of a group: ``(num_groups, g_max, shapes)`` -- the
#: number of non-empty units, the largest member count, and the distinct
#: ``(count, link)`` pairs of the units' member sets.
Units = tuple[int, int, frozenset[tuple[int, LinkSpec | None]]]


@dataclass(frozen=True)
class GroupShape:
    """A node group as every collective formula sees it.

    ``p`` distinct nodes whose span level is ``span`` (-1 when ``p <= 1``)
    over ``link``, the link at that level (None when ``p <= 1``); and for a
    group of two or more, ``units[level]`` for every level of the topology.
    """

    p: int
    span: int
    link: LinkSpec | None
    units: tuple[Units, ...]

    def units_at(self, level: int) -> Units:
        """The group split by ``level`` unit; raises on a level not in the
        topology."""
        if not 0 <= level < len(self.units):
            raise TopologyError(f"level {level} out of range [0, {len(self.units)})")
        return self.units[level]


class Topology:
    """A tree-structured machine of ``prod(arities)`` leaf nodes."""

    def __init__(self, levels: Sequence[Level]):
        if not levels:
            raise TopologyError("topology needs at least one level")
        self._levels = tuple(levels)
        # Cumulative unit sizes: _sizes[l] leaf nodes per level-l unit.
        sizes = []
        n = 1
        for lv in self._levels:
            n *= lv.arity
            sizes.append(n)
        self._sizes = tuple(sizes)
        self._num_nodes = n
        # Sorted distinct members (a range, or a tuple) -> their shape.
        self._shapes: dict[Sequence[int], GroupShape] = {}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def levels(self) -> tuple[Level, ...]:
        """Levels innermost-first."""
        return self._levels

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def num_nodes(self) -> int:
        """Total number of leaf nodes in the machine."""
        return self._num_nodes

    def group_size(self, level: int) -> int:
        """Number of leaf nodes contained in one unit at ``level``.

        ``group_size(0)`` is ``levels[0].arity``; the top level contains the
        whole machine.
        """
        self._check_level(level)
        return self._sizes[level]

    def num_groups(self, level: int) -> int:
        """Number of units at ``level`` across the whole machine."""
        return self._num_nodes // self.group_size(level)

    # ------------------------------------------------------------------ #
    # Coordinates
    # ------------------------------------------------------------------ #

    def coords(self, node: int) -> tuple[int, ...]:
        """Mixed-radix coordinates of ``node``, innermost digit first."""
        self._check_node(node)
        out = []
        rest = node
        for lv in self._levels:
            out.append(rest % lv.arity)
            rest //= lv.arity
        return tuple(out)

    def group_of(self, node: int, level: int) -> int:
        """Index of the ``level``-unit containing ``node``."""
        self._check_node(node)
        self._check_level(level)
        return node // self.group_size(level)

    # ------------------------------------------------------------------ #
    # Span / links
    # ------------------------------------------------------------------ #

    def span_level(self, a: int, b: int) -> int:
        """Outermost level whose coordinate differs between nodes a and b.

        Returns ``-1`` when ``a == b`` (no network traversal needed).
        """
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return -1
        # A level-l coordinate differs (given all outer ones agree) exactly
        # when the two nodes sit in different level-(l-1) units.
        for level in range(len(self._sizes) - 1, 0, -1):
            child = self._sizes[level - 1]
            if a // child != b // child:
                return level
        return 0

    def span_level_of(self, nodes: Sequence[int]) -> int:
        """Outermost level any pair in ``nodes`` must cross (-1 if <=1 node).

        The span of the smallest and largest member: O(levels) once the two
        ends are known, which for a ``range`` is without looking inside it.
        """
        if len(nodes) <= 1:
            return -1
        if isinstance(nodes, range):
            return self.span_level(nodes[0], nodes[-1])
        return self.span_level(min(nodes), max(nodes))

    def link_at(self, level: int) -> LinkSpec:
        """Link spec traversed by traffic spanning ``level``."""
        self._check_level(level)
        return self._levels[level].link

    def link_between(self, a: int, b: int) -> LinkSpec | None:
        """Link used between two nodes, or None for a == b."""
        span = self.span_level(a, b)
        if span < 0:
            return None
        return self._levels[span].link

    def group_shape(self, nodes: Sequence[int]) -> GroupShape:
        """The :class:`GroupShape` of ``nodes`` (any order, duplicates
        allowed), derived on the first call for its member set.

        A ``range`` is its own key and is never expanded: each unit's
        boundary is found by bisection, so ``range(96_000)`` costs 375
        bisections at the supernode level once, and a dict lookup after.
        """
        if isinstance(nodes, range):
            key = nodes if nodes.step > 0 else nodes[::-1]
        else:
            key = tuple(sorted(set(map(int, nodes))))
        shape = self._shapes.get(key)
        if shape is None:
            # Rank threads may derive one key at once: equal shapes, so
            # whichever store lands last is as good as the other.
            shape = self._shapes[key] = self._derive_shape(key)
        return shape

    def _derive_shape(self, nodes: Sequence[int]) -> GroupShape:
        p = len(nodes)
        if p <= 1:
            return GroupShape(p, -1, None, ())
        span = self.span_level(nodes[0], nodes[-1])
        units = tuple(self._units(nodes, level) for level in range(len(self._levels)))
        return GroupShape(p, span, self.link_at(span), units)

    def _units(self, nodes: Sequence[int], level: int) -> Units:
        """Split sorted distinct ``nodes`` by ``level`` unit, without listing them."""
        size = self.group_size(level)
        shapes = set()
        num_groups = g_max = start = 0
        while start < len(nodes):
            first = nodes[start]
            stop = bisect_left(nodes, (first // size + 1) * size, start)
            shapes.add((stop - start, self.link_between(first, nodes[stop - 1])))
            g_max = max(g_max, stop - start)
            num_groups += 1
            start = stop
        return num_groups, g_max, frozenset(shapes)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(
                f"node id {node} out of range [0, {self._num_nodes})"
            )

    def _check_level(self, level: int) -> None:
        if not 0 <= level < len(self._levels):
            raise TopologyError(
                f"level {level} out of range [0, {len(self._levels)})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = " > ".join(f"{lv.name}x{lv.arity}" for lv in reversed(self._levels))
        return f"Topology({parts}, nodes={self._num_nodes})"
