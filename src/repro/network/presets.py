"""Ready-made topologies: Sunway-like hierarchy, flat cluster, dual-level.

Link numbers follow published figures for the Sunway TaihuLight successor
class of machines (per-node injection ~16 GB/s, intra-supernode latency
~1 us, tapered optical fat-tree between supernodes) — the absolute values
matter less than their ratios, which set the crossover points the
benchmarks reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, Callable

from repro.errors import TopologyError
from repro.network.costmodel import NetworkModel
from repro.network.links import LinkSpec
from repro.network.topology import Level, Topology
from repro.utils.mathx import ceil_div

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.specs import MachineSpec

__all__ = [
    "sunway_topology",
    "sunway_network",
    "flat_topology",
    "flat_network",
    "two_level_topology",
    "cabinet_topology",
    "CABINET_LINK",
    "ClusterPreset",
    "CLUSTER_PRESETS",
    "cluster_preset",
]

#: Nodes per Sunway supernode.
SUPERNODE_SIZE = 256

#: Intra-supernode electrical link: low latency, full bisection.
INTRA_SUPERNODE_LINK = LinkSpec(latency=1.0e-6, bandwidth=16e9, oversubscription=1.0)

#: Inter-supernode optical fat-tree: higher latency, 4:1 taper.
INTER_SUPERNODE_LINK = LinkSpec(latency=7.0e-6, bandwidth=16e9, oversubscription=4.0)

#: The uniform cluster's one link: commodity latency, full bisection.
FLAT_LINK = LinkSpec(latency=2.0e-6, bandwidth=12.5e9, oversubscription=1.0)


def sunway_topology(num_nodes: int, supernode_size: int = SUPERNODE_SIZE) -> Topology:
    """A Sunway-like two-level topology covering ``num_nodes`` leaf nodes.

    When ``num_nodes`` fits in one supernode the machine is a single flat
    level; otherwise nodes are grouped into ``supernode_size``-node
    supernodes joined by the tapered inter-supernode fabric.

    Equal arguments return one shared instance (a topology is immutable),
    so every model of an equal machine shares its group-shape cache.
    """
    if num_nodes < 1:
        raise TopologyError(f"num_nodes must be >= 1, got {num_nodes}")
    if supernode_size < 1:
        raise TopologyError(f"supernode_size must be >= 1, got {supernode_size}")
    return _sunway_topology(num_nodes, supernode_size)


@cache
def _sunway_topology(num_nodes: int, supernode_size: int) -> Topology:
    if num_nodes <= supernode_size:
        return Topology([Level("node", num_nodes, INTRA_SUPERNODE_LINK)])
    num_supernodes = ceil_div(num_nodes, supernode_size)
    return Topology(
        [
            Level("node", supernode_size, INTRA_SUPERNODE_LINK),
            Level("supernode", num_supernodes, INTER_SUPERNODE_LINK),
        ]
    )


def sunway_network(num_nodes: int, supernode_size: int = SUPERNODE_SIZE) -> NetworkModel:
    """NetworkModel over :func:`sunway_topology` ("auto" algorithms by default)."""
    return NetworkModel(topology=sunway_topology(num_nodes, supernode_size))


def flat_topology(num_nodes: int) -> Topology:
    """A single-level, uniform cluster (the non-topology-aware baseline)."""
    if num_nodes < 1:
        raise TopologyError(f"num_nodes must be >= 1, got {num_nodes}")
    return Topology([Level("node", num_nodes, FLAT_LINK)])


def flat_network(num_nodes: int) -> NetworkModel:
    """NetworkModel over :func:`flat_topology` ("auto" algorithms by default)."""
    return NetworkModel(topology=flat_topology(num_nodes))


#: Inter-cabinet optical trunks: longest latency, strongest taper.
CABINET_LINK = LinkSpec(latency=12.0e-6, bandwidth=16e9, oversubscription=8.0)


def cabinet_topology(
    nodes_per_supernode: int = SUPERNODE_SIZE,
    supernodes_per_cabinet: int = 4,
    num_cabinets: int = 4,
) -> Topology:
    """Three-level machine: node -> supernode -> cabinet.

    Models the full physical hierarchy of a Sunway-class installation;
    the generic collective cost functions handle any depth, and the
    hierarchical algorithms group at the level just below the span.
    """
    if min(nodes_per_supernode, supernodes_per_cabinet, num_cabinets) < 1:
        raise TopologyError("all cabinet_topology arities must be >= 1")
    return Topology(
        [
            Level("node", nodes_per_supernode, INTRA_SUPERNODE_LINK),
            Level("supernode", supernodes_per_cabinet, INTER_SUPERNODE_LINK),
            Level("cabinet", num_cabinets, CABINET_LINK),
        ]
    )


def two_level_topology(group_size: int, num_groups: int) -> Topology:
    """Explicit two-level topology for tests and ablations."""
    if group_size < 1 or num_groups < 1:
        raise TopologyError("group_size and num_groups must be >= 1")
    return Topology(
        [
            Level("node", group_size, INTRA_SUPERNODE_LINK),
            Level("group", num_groups, INTER_SUPERNODE_LINK),
        ]
    )


# ---------------------------------------------------------------------- #
# Cluster presets: one shared (network, machine) table
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClusterPreset:
    """One named cluster: how to build its network and machine models.

    The single source of (network builder, machine builder) pairs shared by
    the perf sweeps, the layout planner, and the CLI — replacing the
    per-module hardcoded default builders that used to drift.
    """

    name: str
    description: str
    #: ``num_nodes -> NetworkModel`` for the interconnect cost model.
    network: Callable[[int], NetworkModel]
    #: ``num_nodes -> MachineSpec`` for the node compute/memory model.
    machine: "Callable[[int], MachineSpec]"


def _sunway_machine(num_nodes: int) -> "MachineSpec":
    from repro.hardware.specs import sunway_machine

    return sunway_machine(num_nodes)


def _laptop_machine(num_nodes: int) -> "MachineSpec":
    from repro.hardware.specs import laptop_machine

    return laptop_machine(num_nodes)


def _toy_network(num_nodes: int) -> NetworkModel:
    # Four-node supernodes keep the hierarchy visible at test-sized worlds.
    return sunway_network(num_nodes, supernode_size=4)


#: The shared preset table (keys are the CLI ``--cluster`` choices).
CLUSTER_PRESETS: dict[str, ClusterPreset] = {
    "sunway": ClusterPreset(
        name="sunway",
        description="Sunway-like machine: 256-node supernodes over a "
                    "tapered optical fat-tree, SW26010-Pro-class nodes",
        network=sunway_network,
        machine=_sunway_machine,
    ),
    "flat": ClusterPreset(
        name="flat",
        description="Uniform single-level cluster (the non-topology-aware "
                    "baseline) with Sunway-class nodes",
        network=flat_network,
        machine=_sunway_machine,
    ),
    "toy": ClusterPreset(
        name="toy",
        description="Test-scale cluster: laptop-class nodes on 4-node "
                    "supernodes — compute-dominated, so measured virtual "
                    "step times track the analytic model closely",
        network=_toy_network,
        machine=_laptop_machine,
    ),
}


def cluster_preset(name: str) -> ClusterPreset:
    """Look up a preset by name; raises with the known names on a miss."""
    try:
        return CLUSTER_PRESETS[name]
    except KeyError:
        raise TopologyError(
            f"unknown cluster preset {name!r}; known: {sorted(CLUSTER_PRESETS)}"
        ) from None
