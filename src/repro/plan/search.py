"""Layout search: enumerate, filter, and rank parallel layouts.

The planner answers "how should I factor N nodes over (dp, tp, pp, ep,
zero) for this model on this cluster?" by walking every divisor-consistent
:class:`~repro.layout.ParallelLayout`, filtering through exactly the
validation path a measured run would take (the layout's strategy checks,
including the shared layout-vs-model ones), pricing the survivors with the
analytic :class:`~repro.perf.StepModel`, and ranking them by predicted
step time.

Because candidates are filtered by building a real
:class:`~repro.parallel.runner.TrainingRunConfig` and calling its resolved
strategy's ``validate``, every layout the planner emits is guaranteed to
launch, and every layout it rejects raises the identical
:class:`~repro.errors.ConfigError` at launch time — one validation spine,
zero drift. The plan a candidate is priced at is that config's own
``.plan``, so what the planner prices is what it launches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError, TopologyError
from repro.layout import ParallelLayout
from repro.models.configs import ModelConfig
from repro.network.presets import ClusterPreset, cluster_preset
from repro.parallel.runner import TrainingRunConfig
from repro.perf.calibration import CalibrationResult
from repro.perf.memory import node_memory
from repro.perf.plan import ParallelPlan
from repro.perf.stepmodel import StepBreakdown, StepModel, _exposed_step_time

__all__ = [
    "PlannerConfig",
    "PlanCandidate",
    "RejectedLayout",
    "VerifiedCandidate",
    "PlanResult",
    "enumerate_layouts",
    "search_plans",
]


def _divisors(n: int) -> list[int]:
    """Divisors of ``n``, ascending: each ``d <= sqrt(n)`` pairs with ``n // d``."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _layout_key(layout: ParallelLayout) -> tuple[int, int, int, int]:
    """Deterministic tiebreaker for equal predicted times."""
    return (layout.pp_size, layout.tp_size, layout.ep_size, layout.zero_shards)


@dataclass(frozen=True)
class PlannerConfig:
    """One planner invocation: model + cluster + per-rank workload.

    ``micro_batch``/``seq_len`` describe what each rank processes per step
    — the same numbers a measured :class:`TrainingRunConfig` would use for
    ``batch_size``/``seq_len``, so analytic and measured step times price
    the identical workload.
    """

    model: ModelConfig
    num_nodes: int
    cluster: str = "sunway"
    micro_batch: int = 4
    seq_len: int = 16
    #: Microbatches per step for pipeline candidates (GPipe bubble knob).
    num_microbatches: int = 2
    #: Search bounds: TP wider than a node's FFN sharding ever pays off is
    #: rare, and huge ZeRO groups only move optimizer bytes — capping both
    #: keeps the enumeration linear in practice.
    max_tp: int = 8
    max_zero: int = 8
    load_imbalance: float = 1.0
    #: Comm/compute overlap width applied to every candidate: >1 prices
    #: (and would launch) chunked expert dispatch + bucketed grad-sync
    #: overlap. Pipeline layouts ignore it (the measured pipeline path
    #: does not overlap), so their plans are priced at 1.
    overlap_chunks: int = 1

    def __post_init__(self) -> None:
        if self.max_tp < 1 or self.max_zero < 1:
            raise ConfigError("max_tp and max_zero must be >= 1")
        _ = self.preset  # fail fast on unknown cluster names
        # Workload fields are checked where every candidate's are, by the
        # plan of a run; the data-parallel layout exists at any width.
        run_cfg = self.training_config(ParallelLayout(self.num_nodes))
        _ = replace(run_cfg.plan, load_imbalance=self.load_imbalance)

    @property
    def preset(self) -> ClusterPreset:
        """The resolved cluster preset (raises on unknown names)."""
        try:
            return cluster_preset(self.cluster)
        except TopologyError as exc:
            raise ConfigError(str(exc)) from None

    def training_config(self, layout: ParallelLayout) -> TrainingRunConfig:
        """The measured-run config this planner row corresponds to; its
        ``.plan`` is what the row is priced at. Pipeline layouts launch
        (and so price) at one overlap chunk."""
        return TrainingRunConfig(
            model=self.model,
            world_size=layout.world_size,
            ep_size=layout.ep_size,
            tp_size=layout.tp_size,
            pp_size=layout.pp_size,
            zero_shards=layout.zero_shards,
            num_steps=2,
            batch_size=self.micro_batch,
            seq_len=self.seq_len,
            num_microbatches=self.num_microbatches,
            overlap_chunks=1 if layout.pp_size > 1 else self.overlap_chunks,
        )


@dataclass(frozen=True)
class PlanCandidate:
    """One launchable run with its analytic price.

    ``plan`` is ``run_config.plan`` at the planner's load imbalance, so the
    priced plan is by construction the run :func:`verify_plans` launches.
    """

    run_config: TrainingRunConfig
    plan: ParallelPlan
    predicted_step_time: float
    breakdown: StepBreakdown

    @property
    def layout(self) -> ParallelLayout:
        return self.plan.layout

    @property
    def strategy(self) -> str:
        """Name of the strategy the run's layout describes."""
        return self.run_config.resolve_strategy().name

    @property
    def tokens_per_second(self) -> float:
        return self.plan.global_tokens / self.predicted_step_time


@dataclass(frozen=True)
class RejectedLayout:
    """A layout the validation spine (or memory model) turned down."""

    layout: ParallelLayout
    reason: str


@dataclass(frozen=True)
class VerifiedCandidate:
    """A top-k candidate after its short measured (simmpi) run."""

    candidate: PlanCandidate
    #: Virtual step time measured by the simmpi run.
    measured_step_time: float
    #: The raw analytic prediction (preset efficiency, pre-calibration).
    predicted_step_time: float
    #: Re-prediction with the fitted efficiency; None when calibration
    #: was skipped or infeasible.
    calibrated_step_time: float | None = None

    @property
    def relative_error(self) -> float:
        """|predicted - measured| / measured at the preset efficiency."""
        return (
            abs(self.predicted_step_time - self.measured_step_time)
            / self.measured_step_time
        )

    @property
    def calibrated_relative_error(self) -> float | None:
        if self.calibrated_step_time is None:
            return None
        return (
            abs(self.calibrated_step_time - self.measured_step_time)
            / self.measured_step_time
        )


@dataclass(frozen=True)
class PlanResult:
    """Everything one planner run produced."""

    config: PlannerConfig
    #: Launchable candidates, fastest predicted first.
    candidates: tuple[PlanCandidate, ...]
    #: Layouts turned down, with the exact launch-time error message.
    rejected: tuple[RejectedLayout, ...]
    #: Top-k candidates with measured step times (empty before verify).
    verified: tuple[VerifiedCandidate, ...] = ()
    #: Efficiency fit anchored on the best verified candidate, when one ran.
    calibration: CalibrationResult | None = None
    #: Candidate ranking re-priced at the fitted efficiency (empty unless
    #: calibration succeeded).
    recalibrated: tuple[PlanCandidate, ...] = field(default=())

    @property
    def best(self) -> PlanCandidate:
        """The winning layout: fastest measured if verified, else ranked #1."""
        if not self.candidates:
            raise ConfigError("planner produced no launchable candidates")
        if self.verified:
            winner = min(self.verified, key=lambda v: v.measured_step_time)
            return winner.candidate
        return self.candidates[0]

    @property
    def median_relative_error(self) -> float | None:
        """Median model-vs-measured error over the verified candidates.

        Uses the calibrated predictions when the fit ran (the planner's
        headline accuracy number); None before verification.
        """
        if not self.verified:
            return None
        errors = sorted(
            v.calibrated_relative_error
            if v.calibrated_relative_error is not None
            else v.relative_error
            for v in self.verified
        )
        mid = len(errors) // 2
        if len(errors) % 2:
            return errors[mid]
        return 0.5 * (errors[mid - 1] + errors[mid])


def enumerate_layouts(
    world_size: int, max_tp: int = 8, max_zero: int = 8
) -> list[ParallelLayout]:
    """Every divisor-consistent layout of ``world_size`` ranks.

    Walks pp over divisors of the world, tp x ep over divisors of the
    per-stage plane, and ZeRO shard counts (divisors of the world, capped
    at ``max_zero``) on otherwise-pure-DP layouts — ZeRO does not compose
    with tp or pp. Order is deterministic:
    ascending (pp, tp, ep, zero).
    """
    if world_size < 1:
        raise ConfigError(f"world_size must be >= 1, got {world_size}")
    layouts: list[ParallelLayout] = []
    for pp in _divisors(world_size):
        plane = world_size // pp
        for tp in _divisors(plane):
            if tp > max_tp:
                continue
            for ep in _divisors(plane // tp):
                if tp == 1 and pp == 1:
                    zeros = [1] + [
                        z for z in _divisors(world_size) if 2 <= z <= max_zero
                    ]
                else:
                    zeros = [1]
                for zero in zeros:
                    layouts.append(
                        ParallelLayout(
                            world_size=world_size,
                            ep_size=ep,
                            tp_size=tp,
                            pp_size=pp,
                            zero_shards=zero,
                        )
                    )
    return layouts


def search_plans(config: PlannerConfig) -> PlanResult:
    """Enumerate, filter through the launch path, price, and rank.

    Each enumerated layout passes through three gates:

    1. the measured-run validation spine — a real ``TrainingRunConfig`` is
       built and its resolved strategy's ``validate`` runs (identical
       checks and messages to an actual launch);
    2. the model checks of that config's ``.plan`` at the planner's load
       imbalance (instance-granularity experts);
    3. per-node memory against the preset machine's capacity.

    Survivors are priced by :class:`StepModel` and ranked ascending by
    predicted step time (ties broken by the layout tuple, so the ranking
    is deterministic).
    """
    preset = config.preset
    machine = preset.machine(config.num_nodes)
    network = preset.network(config.num_nodes)
    step_model = StepModel(config.model, machine, network)
    mem_budget = machine.processor.memory_bytes

    candidates: list[PlanCandidate] = []
    rejected: list[RejectedLayout] = []
    for layout in enumerate_layouts(
        config.num_nodes, max_tp=config.max_tp, max_zero=config.max_zero
    ):
        try:
            run_cfg = config.training_config(layout)
            run_cfg.resolve_strategy().validate(run_cfg)
        except ConfigError as exc:
            rejected.append(RejectedLayout(layout, str(exc)))
            continue
        plan = replace(run_cfg.plan, load_imbalance=config.load_imbalance)
        try:
            mem = node_memory(config.model, plan)
            if mem.total > mem_budget:
                rejected.append(
                    RejectedLayout(
                        layout,
                        f"needs {mem.total / 2**30:.3g} GiB/node but the "
                        f"{preset.name} node has {mem_budget / 2**30:.3g} GiB",
                    )
                )
                continue
            breakdown = step_model.step_breakdown(plan)
            predicted = _exposed_step_time(breakdown, plan)
        except ConfigError as exc:
            rejected.append(RejectedLayout(layout, str(exc)))
            continue
        candidates.append(
            PlanCandidate(
                run_config=run_cfg,
                plan=plan,
                predicted_step_time=predicted,
                breakdown=breakdown,
            )
        )

    candidates.sort(key=lambda c: (c.predicted_step_time, _layout_key(c.layout)))
    return PlanResult(
        config=config,
        candidates=tuple(candidates),
        rejected=tuple(rejected),
    )
