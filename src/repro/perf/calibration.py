"""Calibrate the machine model against a measured run.

The analytic :class:`~repro.perf.StepModel` has one free scalar — the
machine's ``compute_efficiency`` (sustained/peak ratio). Given a *measured*
per-step time (e.g. from a simmpi run with a
:class:`~repro.perf.ComputeTimer`, or in principle from real hardware),
this module solves for the efficiency that makes the model reproduce it:

    measured = compute(eff) + comm
    compute(eff) = compute(eff=1) / eff
    =>  eff = compute(eff=1) / (measured - comm)

Communication time is efficiency-independent, so the fit is closed-form.
This is how a real reproduction would anchor its projections to a pilot
run before extrapolating to 96,000 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.hardware.specs import MachineSpec
from repro.models.configs import ModelConfig
from repro.network.costmodel import NetworkModel
from repro.perf.plan import ParallelPlan
from repro.perf.stepmodel import StepModel

__all__ = ["CalibrationResult", "calibrate_efficiency"]

#: The lowest sustained/peak ratio a fit reports.
MIN_EFFICIENCY = 0.01


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of an efficiency fit."""

    #: The fitted sustained/peak ratio.
    efficiency: float
    #: Machine spec carrying the fitted efficiency.
    machine: MachineSpec
    #: Model-predicted step time at the fitted efficiency (seconds).
    predicted_step_time: float
    #: The measurement the fit targeted (seconds).
    measured_step_time: float

    @property
    def relative_error(self) -> float:
        """|predicted - measured| / measured after the fit."""
        return abs(self.predicted_step_time - self.measured_step_time) / self.measured_step_time


def calibrate_efficiency(
    config: ModelConfig,
    machine: MachineSpec,
    network: NetworkModel,
    plan: ParallelPlan,
    measured_step_time: float,
) -> CalibrationResult:
    """Fit ``compute_efficiency`` so the model matches a measurement.

    Raises :class:`~repro.errors.ConfigError` when the measurement is
    faster than the communication floor (no efficiency can explain it) or
    implies an efficiency outside ``[MIN_EFFICIENCY, 1]``
    after clamping tolerance.
    """
    if measured_step_time <= 0:
        raise ConfigError(
            f"measured_step_time must be > 0, got {measured_step_time}"
        )
    if plan.overlap != 0.0:
        raise ConfigError(
            "calibrate against a non-overlapped plan (overlap=0); the "
            "closed-form fit assumes exposed communication"
        )
    # Communication does not depend on the efficiency scalar. The GPipe
    # bubble is idle time proportional to per-stage compute, so it scales
    # with 1/efficiency exactly like the compute terms and belongs on the
    # fitted side of the split.
    probe = replace(machine, compute_efficiency=1.0)
    bd = StepModel(config, probe, network).step_breakdown(plan)
    comm = bd.communication
    compute_at_full = bd.compute + bd.pipeline_bubble
    if measured_step_time <= comm:
        raise ConfigError(
            f"measured step time {measured_step_time:.4g}s is at or below "
            f"the modelled communication floor {comm:.4g}s — no compute "
            "efficiency can explain it (check the plan/network)"
        )
    eff = compute_at_full / (measured_step_time - comm)
    eff = min(max(eff, MIN_EFFICIENCY), 1.0)
    fitted = replace(machine, compute_efficiency=eff)
    predicted = StepModel(config, fitted, network).step_time(plan)
    return CalibrationResult(
        efficiency=eff,
        machine=fitted,
        predicted_step_time=predicted,
        measured_step_time=measured_step_time,
    )
