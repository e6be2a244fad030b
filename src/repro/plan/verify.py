"""Measured verification of ranked plan candidates.

The search layer ranks layouts analytically; this module closes the loop
by actually *running* the top-k through the measured side — short simmpi
SPMD runs of each candidate's own launch config, on the same preset
network and machine the analytic model priced — then feeding the best
measurement back through :func:`~repro.perf.calibrate_efficiency` and
re-pricing the whole ranking at the fitted efficiency.

That gives the planner's report three columns per verified candidate:
the raw prediction, the measurement, and the calibrated prediction — with
the model-vs-measured relative error for each, which is the planner's
accuracy contract (median calibrated error on the verified set).
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigError
from repro.parallel.runner import run_distributed_training
from repro.perf.calibration import CalibrationResult, calibrate_efficiency
from repro.perf.stepmodel import StepModel
from repro.plan.search import (
    PlanCandidate,
    PlannerConfig,
    PlanResult,
    VerifiedCandidate,
    _layout_key,
    search_plans,
)

__all__ = ["verify_plans", "plan_layouts"]


def verify_plans(
    result: PlanResult,
    top_k: int = 2,
    num_steps: int = 2,
) -> PlanResult:
    """Run the top-k candidates through simmpi and calibrate the model.

    Each verified run uses the exact :class:`TrainingRunConfig` the search
    validated (same strategy dispatch, same workload), with the preset's
    network and machine models, so measured and predicted step times are
    directly comparable. The top-ranked candidate's measurement anchors an
    efficiency fit; all candidates are then re-priced with the fitted
    machine into ``result.recalibrated``.
    Calibration failures (e.g. a measurement at the modelled communication
    floor) are tolerated: the result simply carries no fit.
    """
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    if num_steps < 1:
        raise ConfigError(f"num_steps must be >= 1, got {num_steps}")
    config = result.config
    preset = config.preset
    network = preset.network(config.num_nodes)
    machine = preset.machine(config.num_nodes)

    top = result.candidates[:top_k]
    measured: list[tuple[PlanCandidate, float]] = []
    for cand in top:
        run_cfg = replace(cand.run_config, num_steps=num_steps)
        run = run_distributed_training(run_cfg, network=network, machine=machine)
        measured.append((cand, run.step_time))

    calibration: CalibrationResult | None = None
    if measured:
        anchor, anchor_time = measured[0]  # top-ranked candidate anchors the fit
        try:
            calibration = calibrate_efficiency(
                config.model, machine, network, anchor.plan, anchor_time
            )
        except ConfigError:
            calibration = None

    recalibrated: tuple[PlanCandidate, ...] = ()
    calibrated_times: dict[int, float] = {}
    if calibration is not None:
        fitted_model = StepModel(config.model, calibration.machine, network)
        repriced = [
            replace(
                c,
                predicted_step_time=fitted_model.step_time(c.plan),
                breakdown=fitted_model.step_breakdown(c.plan),
            )
            for c in result.candidates
        ]
        repriced.sort(key=lambda c: (c.predicted_step_time, _layout_key(c.layout)))
        recalibrated = tuple(repriced)
        calibrated_times = {
            id(c): fitted_model.step_time(c.plan) for c, _ in measured
        }

    verified = tuple(
        VerifiedCandidate(
            candidate=cand,
            measured_step_time=t,
            predicted_step_time=cand.predicted_step_time,
            calibrated_step_time=calibrated_times.get(id(cand)),
        )
        for cand, t in measured
    )
    return replace(
        result,
        verified=verified,
        calibration=calibration,
        recalibrated=recalibrated,
    )


def plan_layouts(
    model,
    num_nodes: int,
    **planner,
) -> PlanResult:
    """One-shot planner facade: search, rank, and verify with
    :func:`verify_plans`' defaults (the top two, two steps each).

    ``planner`` keywords (``cluster``, ``micro_batch``, ``overlap_chunks``,
    ...) are :class:`PlannerConfig` fields, passed through unchanged::

        result = plan_layouts(tiny_config(), num_nodes=8, cluster="toy")
        print(result.best.layout.describe())
    """
    result = search_plans(PlannerConfig(model=model, num_nodes=num_nodes, **planner))
    if result.candidates:
        result = verify_plans(result)
    return result
