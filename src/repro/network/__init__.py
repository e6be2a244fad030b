"""Interconnect topology and analytic communication cost models."""

from repro.network.links import LinkSpec
from repro.network.topology import Level, Topology
from repro.network.costmodel import NetworkModel, check_algorithm_names
from repro.network.presets import (
    CABINET_LINK,
    CLUSTER_PRESETS,
    INTER_SUPERNODE_LINK,
    INTRA_SUPERNODE_LINK,
    SUPERNODE_SIZE,
    ClusterPreset,
    cabinet_topology,
    cluster_preset,
    flat_network,
    flat_topology,
    sunway_network,
    sunway_topology,
    two_level_topology,
)

__all__ = [
    "LinkSpec",
    "Level",
    "Topology",
    "NetworkModel",
    "check_algorithm_names",
    "SUPERNODE_SIZE",
    "INTRA_SUPERNODE_LINK",
    "INTER_SUPERNODE_LINK",
    "CABINET_LINK",
    "ClusterPreset",
    "CLUSTER_PRESETS",
    "cluster_preset",
    "cabinet_topology",
    "flat_network",
    "flat_topology",
    "sunway_network",
    "sunway_topology",
    "two_level_topology",
]
