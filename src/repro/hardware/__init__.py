"""Machine models: SW26010-Pro-like processors, nodes, whole machines."""

from repro.hardware.specs import (
    SUNWAY_NODE,
    SW26010_PRO,
    MachineSpec,
    NodeSpec,
    ProcessorSpec,
    laptop_machine,
    sunway_machine,
)

__all__ = [
    "SUNWAY_NODE",
    "SW26010_PRO",
    "MachineSpec",
    "NodeSpec",
    "ProcessorSpec",
    "laptop_machine",
    "sunway_machine",
]
