"""Calibration of the machine model against measured runs."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.hardware import laptop_machine, sunway_machine
from repro.models import bagualu_14_5t, tiny_config
from repro.network import sunway_network
from repro.perf import (
    CalibrationResult,
    ParallelPlan,
    StepModel,
    calibrate_efficiency,
)
from repro.perf.calibration import MIN_EFFICIENCY

CFG = bagualu_14_5t()
MACHINE = sunway_machine(1024)
NET = sunway_network(1024)
PLAN = ParallelPlan(num_nodes=1024, ep_size=1024, micro_batch=1, seq_len=2048)


class TestClosedFormFit:
    def test_recovers_known_efficiency(self):
        """Fitting against the model's own output recovers the truth."""
        for truth in (0.1, 0.25, 0.6):
            m = replace(MACHINE, compute_efficiency=truth)
            measured = StepModel(CFG, m, NET).step_time(PLAN)
            fit = calibrate_efficiency(CFG, MACHINE, NET, PLAN, measured)
            assert fit.efficiency == pytest.approx(truth, rel=1e-6)
            assert fit.relative_error < 1e-9

    def test_fitted_machine_carried(self):
        measured = StepModel(CFG, MACHINE, NET).step_time(PLAN)
        fit = calibrate_efficiency(CFG, MACHINE, NET, PLAN, measured)
        assert isinstance(fit, CalibrationResult)
        assert fit.machine.compute_efficiency == pytest.approx(fit.efficiency)
        assert fit.machine.num_nodes == MACHINE.num_nodes

    def test_slower_measurement_lower_efficiency(self):
        base = StepModel(CFG, MACHINE, NET).step_time(PLAN)
        fast = calibrate_efficiency(CFG, MACHINE, NET, PLAN, base)
        slow = calibrate_efficiency(CFG, MACHINE, NET, PLAN, base * 2)
        assert slow.efficiency < fast.efficiency

    def test_clamped_to_bounds(self):
        # Absurdly slow measurement -> clamp at the lowest efficiency.
        fit = calibrate_efficiency(CFG, MACHINE, NET, PLAN, 1e9)
        assert fit.efficiency == MIN_EFFICIENCY == 0.01

    def test_below_comm_floor_rejected(self):
        with pytest.raises(ConfigError, match="communication floor"):
            calibrate_efficiency(CFG, MACHINE, NET, PLAN, 1e-9)

    def test_nonpositive_measurement_rejected(self):
        with pytest.raises(ConfigError):
            calibrate_efficiency(CFG, MACHINE, NET, PLAN, 0.0)

    def test_overlapped_plan_rejected(self):
        plan = ParallelPlan(num_nodes=1024, ep_size=1024, micro_batch=1,
                            seq_len=2048, overlap=0.5)
        with pytest.raises(ConfigError, match="overlap"):
            calibrate_efficiency(CFG, MACHINE, NET, plan, 1.0)


class TestEndToEndCalibration:
    def test_calibrate_from_simmpi_measurement(self):
        """Measure a small run through the runtime, fit, and check the
        fitted model reproduces the measurement."""
        from repro.parallel import TrainingRunConfig, run_distributed_training

        cfg = tiny_config(num_experts=8)
        world = 8
        machine = laptop_machine(world)
        net = sunway_network(world, supernode_size=4)
        run = run_distributed_training(
            TrainingRunConfig(model=cfg, world_size=world, ep_size=world,
                              num_steps=2, batch_size=4, seq_len=16),
            network=net, machine=machine,
        )
        plan = ParallelPlan(num_nodes=world, ep_size=8, micro_batch=4, seq_len=16)
        fit = calibrate_efficiency(cfg, machine, net, plan, run.step_time)
        # The fit reproduces the measurement by construction...
        assert fit.relative_error < 1e-6
        # ...and lands near the machine's true sustained factor (the
        # measured run used the same ComputeTimer; gaps come from gradient
        # sync details the analytic model simplifies).
        assert 0.05 <= fit.efficiency <= 1.0
