"""Machine model: specs and headline core counts."""

import pytest

from repro.errors import ConfigError
from repro.hardware import (
    SW26010_PRO,
    MachineSpec,
    ProcessorSpec,
    laptop_machine,
    sunway_machine,
)


class TestProcessorSpec:
    def test_sw26010_core_count(self):
        # 6 CGs x (1 MPE + 64 CPEs) = 390 cores.
        assert SW26010_PRO.cores == 390

    def test_flops_lookup(self):
        assert SW26010_PRO.flops("fp64") == pytest.approx(14.0e12)
        assert SW26010_PRO.flops("fp16") > SW26010_PRO.flops("fp32")

    def test_unknown_dtype(self):
        with pytest.raises(ConfigError):
            SW26010_PRO.flops("int8")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            ProcessorSpec(
                name="bad", core_groups=0, mpe_per_group=1, cpe_per_group=1,
                peak_flops={"fp32": 1.0}, memory_bytes=1,
            )
        with pytest.raises(ConfigError):
            ProcessorSpec(
                name="bad", core_groups=1, mpe_per_group=1, cpe_per_group=1,
                peak_flops={}, memory_bytes=1,
            )


class TestMachine:
    def test_headline_37_million_cores(self):
        """The paper's title claim: 96,000 nodes > 37 million cores."""
        machine = sunway_machine(96_000)
        assert machine.total_cores == 96_000 * 390
        assert machine.total_cores > 37_000_000

    def test_peak_flops_scales_with_nodes(self):
        m1 = sunway_machine(100)
        m2 = sunway_machine(200)
        assert m2.peak_flops("fp16") == pytest.approx(2 * m1.peak_flops("fp16"))

    def test_headline_fp16_exaflops_class(self):
        """Full machine peak fp16 is in the multi-EFLOPS class."""
        m = sunway_machine(96_000)
        assert m.peak_flops("fp16") > 1e18

    def test_with_nodes(self):
        m = sunway_machine(96_000).with_nodes(128)
        assert m.num_nodes == 128
        assert m.processor is SW26010_PRO

    def test_invalid_machine(self):
        with pytest.raises(ConfigError):
            MachineSpec(name="x", processor=SW26010_PRO, num_nodes=0)
        with pytest.raises(ConfigError):
            MachineSpec(name="x", processor=SW26010_PRO, num_nodes=1, compute_efficiency=0.0)

    def test_laptop_machine_small(self):
        m = laptop_machine()
        assert m.total_cores < 100

    def test_node_spec_is_one_processor(self):
        node = sunway_machine(1)
        assert node.processor is SW26010_PRO
        assert node.total_cores == 390
        assert node.peak_flops("fp64") == 14e12
        assert node.processor.memory_bytes == 96 * 2**30

