"""Process-group topology for MoDa hybrid parallelism.

BaGuaLu's MoDa strategy combines **Mo**E expert parallelism with **Da**ta
parallelism:

* the world of P ranks is tiled into expert-parallel (EP) groups of size
  ``ep_size``; the experts of every MoE layer are sharded across one EP
  group (tokens travel by alltoall within the group);
* the ``P / ep_size`` EP groups replicate the experts, forming the
  expert-data-parallel (EDP) axis: expert gradients are allreduced across
  ranks with the same EP position;
* dense (attention/backbone/router) parameters are replicated everywhere
  and allreduced over the full world.

Placing each EP group inside one supernode keeps the latency-critical
alltoall on fast links while the bulk-bandwidth allreduce crosses
supernodes — the communication split the paper's design exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.layout import ParallelLayout
from repro.simmpi import Comm

__all__ = ["MoDaGroups", "build_groups"]


@dataclass
class MoDaGroups:
    """Live communicators for one rank of a MoDa program."""

    #: ``world`` factored as ``dp x ep`` (EP innermost).
    layout: ParallelLayout
    #: Full world (dense-parameter data parallelism).
    world: Comm
    #: This rank's expert-parallel group (token alltoall).
    ep: Comm
    #: Ranks sharing this rank's EP position (expert-gradient allreduce).
    edp: Comm

    @property
    def rank(self) -> int:
        return self.world.rank

    @property
    def ep_rank(self) -> int:
        return self.ep.rank

    @property
    def edp_rank(self) -> int:
        return self.edp.rank


def build_groups(world: Comm, ep_size: int) -> MoDaGroups:
    """Split ``world`` into the MoDa communicators (collective call).

    Every rank of ``world`` must call this with the same ``ep_size``.
    """
    layout = ParallelLayout(world_size=world.size, ep_size=ep_size)
    r = world.rank
    ep = world.Split(color=layout.dp_index_of(r), key=layout.ep_rank_of(r))
    edp = world.Split(color=layout.ep_rank_of(r), key=layout.dp_index_of(r))
    assert ep is not None and edp is not None
    if ep.size != ep_size or edp.size != layout.num_ep_groups:
        raise ConfigError(
            f"group split mismatch: ep={ep.size} (want {ep_size}), "
            f"edp={edp.size} (want {layout.num_ep_groups})"
        )
    return MoDaGroups(layout=layout, world=world, ep=ep, edp=edp)
