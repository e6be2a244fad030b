"""Process-group topology: the communicators of every parallel layout.

BaGuaLu's MoDa strategy combines **Mo**E expert parallelism with **Da**ta
parallelism, and every other layout of this repo adds an axis around it:

* the world is cut into ``pp_size`` stage *planes*; ranks at the same
  plane position across planes form one *pipeline* (``pipe``);
* each plane is tiled into expert-parallel (EP) groups of ``ep_size``
  consecutive ranks; the experts of every MoE layer are sharded across one
  EP group (tokens travel by alltoall within the group);
* the plane's EP groups replicate the experts, forming the
  expert-data-parallel (EDP) axis: expert gradients are allreduced across
  ranks with the same EP position;
* with ``tp_size > 1``, dense FFN blocks are sharded over the ``tp`` group
  and their gradients averaged over the same-shard replicas (``tpdp``);
* with ``zero_shards > 1``, the replicated optimizer state is sharded over
  ``zero`` blocks of consecutive plane ranks;
* replicated dense parameters are allreduced over the whole plane.

Placing each EP group inside one supernode keeps the latency-critical
alltoall on fast links while the bulk-bandwidth allreduce crosses
supernodes — the communication split the paper's design exploits.

:func:`build_groups` is the only place a rank's communicators are built.
Every ``Split`` costs virtual time and shows up in traces, so the order it
issues them in is part of its contract: ``pipe`` then ``plane`` (pp > 1
only), ``ep`` then ``edp``, ``tp`` then ``tpdp`` (tp > 1 only), ``zero``
(zero > 1 only). At pp 1 the plane *is* the world and no split is issued
for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.layout import ParallelLayout
from repro.simmpi import Comm

__all__ = ["MoDaGroups", "build_groups"]


@dataclass
class MoDaGroups:
    """Live communicators for one rank of any layout (``None``: no such axis)."""

    #: ``world`` factored as ``pp x dp x tp x ep`` (EP innermost).
    layout: ParallelLayout
    world: Comm
    #: This rank's stage plane (replicated-parameter sync); ``world`` at pp 1.
    plane: Comm
    #: This rank's expert-parallel group (token alltoall).
    ep: Comm
    #: Plane ranks sharing this rank's EP position (expert-gradient allreduce).
    edp: Comm
    #: This rank's pipeline (same plane position across stages).
    pipe: Comm | None = None
    #: This rank's tensor-parallel group (sharded dense FFNs).
    tp: Comm | None = None
    #: Plane ranks holding this rank's TP shard (TP-gradient allreduce).
    tpdp: Comm | None = None
    #: This rank's ZeRO optimizer-state shard group.
    zero: Comm | None = None

    @property
    def ep_rank(self) -> int:
        return self.ep.rank

    @property
    def pipeline_id(self) -> int:
        """This rank's position within its stage plane."""
        return self.plane.rank


def build_groups(world: Comm, layout: ParallelLayout) -> MoDaGroups:
    """Split ``world`` into ``layout``'s communicators (collective call).

    Every rank of ``world`` must call this with the same ``layout``.
    """
    if layout.world_size != world.size:
        raise ConfigError(
            f"layout world_size={layout.world_size} != comm size {world.size}"
        )
    r = world.rank
    plane_rank = r % layout.plane_size
    ep_rank = layout.ep_rank_of(r)
    pipe = tp = tpdp = zero = None
    plane = world
    if layout.pp_size > 1:
        stage = layout.stage_of(r)
        pipe = world.Split(color=plane_rank, key=stage)
        plane = world.Split(color=stage, key=plane_rank)
    ep = plane.Split(color=plane_rank // layout.ep_size, key=ep_rank)
    edp = plane.Split(color=ep_rank, key=plane_rank // layout.ep_size)
    if layout.tp_size > 1:
        tp_rank = layout.tp_rank_of(r)
        tp = plane.Split(
            color=layout.dp_index_of(r) * layout.ep_size + ep_rank, key=tp_rank
        )
        tpdp = plane.Split(color=tp_rank, key=plane_rank)
    if layout.zero_shards > 1:
        zero = plane.Split(color=plane_rank // layout.zero_shards, key=plane_rank)
    return MoDaGroups(layout, world, plane, ep, edp, pipe, tp, tpdp, zero)
