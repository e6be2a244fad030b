"""Machine models: SW26010-Pro-like processors and whole machines."""

from repro.hardware.specs import (
    SW26010_PRO,
    MachineSpec,
    ProcessorSpec,
    laptop_machine,
    sunway_machine,
)

__all__ = [
    "SW26010_PRO",
    "MachineSpec",
    "ProcessorSpec",
    "laptop_machine",
    "sunway_machine",
]
