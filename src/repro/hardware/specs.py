"""Processor and machine specifications (SW26010-Pro-like model).

The New Generation Sunway node is modelled after published SW26010-Pro
figures: 6 core groups per CPU, each with 1 management processing element
(MPE) and an 8x8 mesh of 64 compute processing elements (CPEs), for 390
cores per node; ~14 TFLOPS fp64 peak per node with half precision several
times higher. 96,000 such nodes give the paper's headline "over 37 million
cores" (96,000 x 390 = 37.44 M).

Absolute numbers are approximate by design — the reproduction targets
performance *shapes*, and exposes every figure as a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["ProcessorSpec", "MachineSpec", "SW26010_PRO", "sunway_machine", "laptop_machine"]


@dataclass(frozen=True)
class ProcessorSpec:
    """One many-core CPU.

    Parameters
    ----------
    name:
        Model label.
    core_groups:
        Number of core groups (CGs) on the die.
    mpe_per_group / cpe_per_group:
        Management / compute processing elements per CG.
    peak_flops:
        Dict dtype-name -> peak FLOP/s for the whole CPU.
    memory_bytes:
        Attached memory capacity in bytes.
    memory_bandwidth:
        Aggregate memory bandwidth in bytes/s.
    """

    name: str
    core_groups: int
    mpe_per_group: int
    cpe_per_group: int
    peak_flops: dict[str, float]
    memory_bytes: float
    memory_bandwidth: float

    def __post_init__(self) -> None:
        if self.core_groups < 1 or self.mpe_per_group < 0 or self.cpe_per_group < 0:
            raise ConfigError("invalid core counts in ProcessorSpec")
        if not self.peak_flops:
            raise ConfigError("ProcessorSpec.peak_flops must not be empty")
        for dtype, flops in self.peak_flops.items():
            if flops <= 0:
                raise ConfigError(f"peak_flops[{dtype!r}] must be > 0")
        if self.memory_bytes <= 0 or self.memory_bandwidth <= 0:
            raise ConfigError("memory size/bandwidth must be > 0")

    @property
    def cores(self) -> int:
        """Total hardware cores (MPEs + CPEs)."""
        return self.core_groups * (self.mpe_per_group + self.cpe_per_group)

    def flops(self, dtype: str) -> float:
        """Peak FLOP/s for ``dtype``; raises for unknown dtypes."""
        try:
            return self.peak_flops[dtype]
        except KeyError:
            raise ConfigError(
                f"{self.name} has no peak-FLOPS entry for dtype {dtype!r}; "
                f"known: {sorted(self.peak_flops)}"
            ) from None


@dataclass(frozen=True)
class MachineSpec:
    """A whole machine: one processor a node x node count (+ efficiency knobs).

    ``compute_efficiency`` is the sustained-to-peak ratio applied by the
    performance model to matmul-dominated workloads (real large-scale runs
    never see peak; BaGuaLu-class frameworks sustain a modest fraction of
    it). It is a single scalar on purpose: it shifts absolute throughput
    without changing any scaling shape.
    """

    name: str
    processor: ProcessorSpec
    num_nodes: int
    compute_efficiency: float = 0.25

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if not 0.0 < self.compute_efficiency <= 1.0:
            raise ConfigError("compute_efficiency must be in (0, 1]")

    @property
    def total_cores(self) -> int:
        return self.processor.cores * self.num_nodes

    def peak_flops(self, dtype: str) -> float:
        """Machine-wide peak FLOP/s for ``dtype``."""
        return self.processor.flops(dtype) * self.num_nodes

    def with_nodes(self, num_nodes: int) -> "MachineSpec":
        """Copy of this machine scaled to ``num_nodes`` nodes."""
        return MachineSpec(
            name=self.name,
            processor=self.processor,
            num_nodes=num_nodes,
            compute_efficiency=self.compute_efficiency,
        )


#: SW26010-Pro-like CPU: 6 CGs x (1 MPE + 64 CPEs) = 390 cores,
#: ~14 TFLOPS fp64 (fp32 same vector width at 2x, fp16 4x), 96 GiB @ 307 GB/s.
SW26010_PRO = ProcessorSpec(
    name="SW26010-Pro-like",
    core_groups=6,
    mpe_per_group=1,
    cpe_per_group=64,
    peak_flops={
        "fp64": 14.0e12,
        "fp32": 28.0e12,
        "fp16": 55.3e12,
        "bf16": 55.3e12,
    },
    memory_bytes=96 * 2**30,
    memory_bandwidth=307e9,
)


def sunway_machine(num_nodes: int = 96_000) -> MachineSpec:
    """The headline machine: 96,000 nodes -> 37.44 M cores, at the default
    ``compute_efficiency``."""
    return MachineSpec(name="new-sunway-like", processor=SW26010_PRO, num_nodes=num_nodes)


def laptop_machine(num_nodes: int = 1) -> MachineSpec:
    """A tiny reference machine for sanity checks and unit tests."""
    cpu = ProcessorSpec(
        name="laptop-cpu",
        core_groups=1,
        mpe_per_group=0,
        cpe_per_group=8,
        peak_flops={"fp64": 1.0e11, "fp32": 2.0e11, "fp16": 4.0e11, "bf16": 4.0e11},
        memory_bytes=16 * 2**30,
        memory_bandwidth=50e9,
    )
    return MachineSpec(
        name="laptop",
        processor=cpu,
        num_nodes=num_nodes,
        compute_efficiency=0.5,
    )
