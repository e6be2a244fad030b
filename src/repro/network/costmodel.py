"""The :class:`NetworkModel` facade used by the simulated MPI layer.

It binds a :class:`~repro.network.topology.Topology` to an algorithm policy
and answers "how long does this operation take over these nodes". The
simulated MPI layer advances each rank's virtual clock by these times, so a
program written against :mod:`repro.simmpi` is simultaneously functionally
correct *and* produces topology-aware timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.network import collectives as C
from repro.network.topology import GroupShape, Topology

__all__ = ["NetworkModel", "check_algorithm_names"]

_ALLREDUCE_ALGOS = ("ring", "tree", "hierarchical", "auto")
_ALLTOALL_ALGOS = ("flat", "hierarchical", "auto")


def _refuse_unknown(op: str, algo: str, known: tuple[str, ...]) -> None:
    if algo not in known:
        raise ConfigError(f"{op}_algorithm must be one of {known}, got {algo!r}")


def check_algorithm_names(allreduce: str | None, alltoall: str | None) -> None:
    """Refuse an unknown collective algorithm name; ``None`` is the
    network's own choice, "auto". A config validates its choices with it."""
    _refuse_unknown("allreduce", allreduce or "auto", _ALLREDUCE_ALGOS)
    _refuse_unknown("alltoall", alltoall or "auto", _ALLTOALL_ALGOS)


@dataclass
class NetworkModel:
    """Topology -> operation timing.

    A call with ``algorithm=None`` runs "auto", which picks the cheapest
    analytic estimate, as a tuned MPI would.

    Parameters
    ----------
    topology:
        The machine interconnect.
    node_of_rank:
        Optional mapping from MPI rank to leaf-node id. Defaults to
        ``rank % num_nodes`` (dense packing).
    """

    topology: Topology
    node_of_rank: Callable[[int], int] | None = None

    def node(self, rank: int) -> int:
        """Leaf node hosting ``rank``."""
        if self.node_of_rank is not None:
            return self.node_of_rank(rank)
        return rank % self.topology.num_nodes

    def _nodes(self, ranks: Sequence[int]) -> Sequence[int]:
        """Leaf nodes of ``ranks``; a densely packed ``range`` is its own."""
        if self.node_of_rank is None and isinstance(ranks, range) and ranks:
            lo, hi = sorted((ranks[0], ranks[-1]))
            if 0 <= lo and hi < self.topology.num_nodes:
                return ranks  # rank % num_nodes is the identity here
        return [self.node(r) for r in ranks]

    def _shape(self, ranks: Sequence[int]) -> GroupShape:
        return self.topology.group_shape(self._nodes(ranks))

    # ------------------------------------------------------------------ #
    # Point-to-point
    # ------------------------------------------------------------------ #

    def p2p_time(self, nbytes: float, src_rank: int, dst_rank: int) -> float:
        """Time for one message between two ranks."""
        return C.cost_p2p(self.topology, nbytes, self.node(src_rank), self.node(dst_rank))

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def barrier_time(self, ranks: Sequence[int]) -> float:
        return C.cost_barrier(self._shape(ranks))

    def bcast_time(self, nbytes: float, ranks: Sequence[int]) -> float:
        return C.cost_bcast(self._shape(ranks), nbytes)

    def allreduce_time(
        self, nbytes: float, ranks: Sequence[int], algorithm: str | None = None
    ) -> float:
        """Allreduce of an ``nbytes`` buffer over ``ranks``."""
        algo = algorithm or "auto"
        _refuse_unknown("allreduce", algo, _ALLREDUCE_ALGOS)
        shape = self._shape(ranks)
        if algo == "ring":
            return C.cost_ring_allreduce(shape, nbytes)
        if algo == "tree":
            return C.cost_tree_allreduce(shape, nbytes)
        if algo == "hierarchical":
            return C.cost_hierarchical_allreduce(shape, nbytes)
        # auto: take the best of the three estimates, as a tuned MPI would.
        return min(
            C.cost_ring_allreduce(shape, nbytes),
            C.cost_tree_allreduce(shape, nbytes),
            C.cost_hierarchical_allreduce(shape, nbytes),
        )

    def allgather_time(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        return C.cost_allgather(self._shape(ranks), nbytes_per_rank)

    def gather_time(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        return C.cost_gather(self._shape(ranks), nbytes_per_rank)

    def alltoall_time(
        self,
        nbytes_per_pair: float,
        ranks: Sequence[int],
        algorithm: str | None = None,
    ) -> float:
        """Alltoall with a uniform per-pair payload."""
        algo = algorithm or "auto"
        _refuse_unknown("alltoall", algo, _ALLTOALL_ALGOS)
        shape = self._shape(ranks)
        if algo == "flat":
            return C.cost_flat_alltoall(shape, nbytes_per_pair)
        if algo == "hierarchical":
            return C.cost_hierarchical_alltoall(shape, nbytes_per_pair)
        return min(
            C.cost_flat_alltoall(shape, nbytes_per_pair),
            C.cost_hierarchical_alltoall(shape, nbytes_per_pair),
        )
