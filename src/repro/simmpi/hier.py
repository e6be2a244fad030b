"""Functional hierarchical (two-phase) alltoall.

The cost model in :mod:`repro.network` prices the supernode-aggregated
alltoall analytically; this module *implements* it, so the aggregation
algorithm itself is verified functionally: the result is identical to a
flat ``comm.alltoall`` while the traffic pattern becomes

1. **intra-group phase** — each rank hands every item to the group member
   whose intra-group position matches the item's destination position;
2. **inter-group phase** — ranks at the same position exchange aggregated
   bundles across groups, delivering each item to its exact destination.

Inter-group message count per rank drops from ``p-1`` to ``p/g - 1``
(bundles are larger), which is precisely the trade the F3 experiment
prices. Ranks are grouped consecutively, matching the MoDa placement of
EP groups inside supernodes.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import CommunicatorError
from repro.simmpi.comm import Comm

__all__ = ["hierarchical_alltoall"]


def hierarchical_alltoall(
    comm: Comm, send_list: Sequence[Any], group_size: int
) -> list[Any]:
    """Total exchange via intra-group re-bucketing + inter-group bundles.

    Equivalent to ``comm.alltoall(send_list)`` (same result, by
    construction and by property test); ``group_size`` must divide the
    communicator size. Every rank must call with the same ``group_size``.
    """
    p = comm.size
    if group_size < 1 or p % group_size != 0:
        raise CommunicatorError(
            f"group_size={group_size} must divide comm size {p}"
        )
    if len(send_list) != p:
        raise CommunicatorError(
            f"send_list must have {p} entries, got {len(send_list)}"
        )
    g = group_size
    num_groups = p // g
    me = comm.rank
    my_pos = me % g

    if g == 1 or g == p:
        # No hierarchy to exploit; a flat exchange is the same thing.
        return comm.alltoall(list(send_list))

    intra = comm.Split(color=me // g, key=my_pos)
    inter = comm.Split(color=my_pos, key=me // g)
    # Split returns None only for color=None, and both colors are ints here.
    assert intra is not None and inter is not None

    # Phase 1: give group member at position (dest % g) the (src, dest,
    # item) triples it is responsible for forwarding.
    buckets_by_pos: list[list[tuple[int, int, Any]]] = [[] for _ in range(g)]
    for dest in range(p):
        buckets_by_pos[dest % g].append((me, dest, send_list[dest]))
    phase1 = intra.alltoall(buckets_by_pos)

    # I now hold triples from my whole group, all destined to ranks whose
    # position == my position. Bundle them by destination group.
    bundles: list[list[tuple[int, int, Any]]] = [[] for _ in range(num_groups)]
    for triples in phase1:
        for src, dest, item in triples:
            bundles[dest // g].append((src, dest, item))

    # Phase 2: exchange bundles across groups at fixed position. The
    # bundle for group h contains everything my group sends to rank
    # (h * g + my_pos) — it arrives at its exact destination.
    phase2 = inter.alltoall(bundles)

    result: list[Any] = [None] * p
    seen = [False] * p
    for triples in phase2:
        for src, dest, item in triples:
            if dest != me:
                raise CommunicatorError(
                    f"routing bug: rank {me} received item for {dest}"
                )
            if seen[src]:
                raise CommunicatorError(
                    f"routing bug: duplicate item from source {src}"
                )
            result[src] = item
            seen[src] = True
    if not all(seen):
        missing = [s for s, ok in enumerate(seen) if not ok]
        raise CommunicatorError(f"routing bug: missing items from {missing}")
    return result
