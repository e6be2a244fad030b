"""Recovery supervisor: classify, back off, restart — and shrink if needed.

At BaGuaLu scale (96,000 nodes / 37M cores), failures are not
exceptional; they are the steady state. The original system survived
them with checkpoint-restart. This module reproduces that loop on the
simulated machine and extends it with what production schedulers add on
top of plain restart:

* **failure classification** — a rank killed by the fault model
  (:class:`~repro.errors.FaultInjected`), a hang
  (:class:`~repro.errors.DeadlockError`) and a loss-scale blow-up
  (:class:`~repro.errors.OverflowDetected`) are all *modelled* failures
  and recoverable; programming errors propagate immediately, exactly as
  :mod:`repro.errors` prescribes;
* **capped exponential backoff** — consecutive failures wait
  ``base * 2**(n-1)`` virtual seconds (capped) before relaunching,
  charged to the session clock and recorded as a ``backoff`` phase;
* **blame-driven elastic restart** — when the same node keeps killing
  runs (``shrink_after`` strikes), the supervisor excludes it from the
  fault model's rank↦node map, shrinks the world to the largest size of
  at most half that divides the full width, and resumes from the
  latest verified snapshot. The layout-independent checkpoint format
  (:mod:`repro.parallel.dist_checkpoint`) reshards experts and optimizer
  state into the new world, and the fold-carry driver
  (:mod:`repro.resilience.elastic`) reproduces the full-world loss
  trajectory on the shrunken world;
* **goodput accounting** — every launch, failure, backoff, shrink and
  reshard lands in one session :class:`~repro.simmpi.RunContext`
  (absorbing each launch's own context, including the partial context of
  crashed attempts), yielding virtual-time goodput, availability,
  lost step-work and restart overhead.

All supervisor time is *virtual* (simulated-machine seconds), so
goodput numbers are reproducible bit for bit across hosts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import (
    CommunicatorError,
    ConfigError,
    DeadlockError,
    FaultInjected,
    OverflowDetected,
    ReproError,
)
from repro.hardware.specs import sunway_machine
from repro.network.presets import sunway_network
from repro.parallel.dist_checkpoint import latest_snapshot
from repro.parallel.runner import TrainingRunConfig
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.elastic import SegmentProgress, SegmentSpec, run_elastic_segment
from repro.simmpi import RunContext, run_spmd

__all__ = [
    "ElasticRunConfig",
    "ElasticRunResult",
    "Supervisor",
    "classify_failure",
]


def classify_failure(exc: BaseException) -> str:
    """Name the failure class of a modelled error.

    ``fault`` (a rank killed by the plan/model), ``deadlock`` (a hang
    hitting the wall-clock deadline), ``overflow``
    (loss-scale exhaustion), or the exception class name for any other
    :class:`~repro.errors.ReproError`. Non-``ReproError`` exceptions are
    programming errors — the supervisor never catches them, but this
    helper still names them for logs.
    """
    if isinstance(exc, FaultInjected):
        return "fault"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, OverflowDetected):
        return "overflow"
    return type(exc).__name__


class PostMortem(NamedTuple):
    """What a crashed launch left behind: its failure class, the rank the
    engine blames (if any), the virtual seconds into the launch at which it
    died, the dead world's partial ``RunContext`` (if it got that far) and
    the flight-recorder fields of the failure event (empty without a dump)."""

    failure: str
    rank: int | None
    crashed_time: float
    partial_context: Any | None
    flight_fields: dict[str, Any]


def post_mortem(exc: ReproError) -> PostMortem:
    """Read a crashed launch's evidence off the exception ``run_spmd`` raised.

    The engine hangs ``partial_clocks`` / ``partial_context`` / ``flight_dump``
    on it; the :class:`Supervisor` and the serving fleet both read them here,
    so the crash instant — today the furthest clock any rank reached — is
    defined in exactly one place.
    """
    rank = getattr(exc, "rank", None)
    flight = getattr(exc, "flight_dump", None)
    flight_fields: dict[str, Any] = {}
    if flight is not None:
        flight_fields["flight_events"] = sum(
            len(v) for v in flight.get("ranks", {}).values()
        )
        flight_fields["flight_last_op"] = flight.get("last_op", {}).get(rank)
    return PostMortem(
        failure=classify_failure(exc),
        rank=rank,
        crashed_time=max(getattr(exc, "partial_clocks", None) or [0.0]),
        partial_context=getattr(exc, "partial_context", None),
        flight_fields=flight_fields,
    )


@dataclass(frozen=True)
class ElasticRunConfig:
    """Setup for a supervised, elastically-restartable training run: the
    full-width launch plus the policy that restarts it."""

    #: The full-width launch; every attempt runs it at its own world x ep.
    run: TrainingRunConfig
    checkpoint_every: int
    checkpoint_dir: str | Path
    max_restarts: int = 5
    #: Backoff before relaunch n consecutive failures in:
    #: ``min(cap, base * 2**(n-1))`` virtual seconds.
    backoff_base: float = 5.0
    backoff_cap: float = 60.0
    #: Shrink the world when one node accumulates ``shrink_after`` blamed
    #: failures (set False to always relaunch at full width).
    elastic: bool = True
    shrink_after: int = 2
    min_world_size: int = 1

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        # What ElasticStepDriver cannot execute: it steps one in-plane MoDa
        # trainer, unchunked, and never scales the loss.
        run = self.run
        for name in ("tp_size", "pp_size", "zero_shards", "overlap_chunks"):
            if getattr(run, name) != 1:
                raise ConfigError(
                    f"elastic training runs {name}=1 only, got {getattr(run, name)}"
                )
        if run.mixed_precision:
            raise ConfigError("elastic training runs mixed_precision=False only")
        # Layout and workload are checked by the full-width launch.
        self.training_config(run.world_size, run.ep_size)
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        # Delegated: BackoffPolicy owns the schedule validation, so the
        # supervisor and the serving fleet router reject the same inputs.
        self.backoff_policy()
        if self.shrink_after < 1:
            raise ConfigError(f"shrink_after must be >= 1, got {self.shrink_after}")
        if not 1 <= self.min_world_size <= run.world_size:
            raise ConfigError(
                f"min_world_size must be in [1, {run.world_size}], "
                f"got {self.min_world_size}"
            )

    def backoff_policy(self) -> BackoffPolicy:
        """The capped-exponential schedule this run waits between retries."""
        return BackoffPolicy(base=self.backoff_base, cap=self.backoff_cap)

    def training_config(self, world: int, ep: int) -> TrainingRunConfig:
        """The validated launch config of one attempt at ``world`` x ``ep``."""
        run_cfg = replace(self.run, world_size=world, ep_size=ep)
        run_cfg.resolve_strategy().validate(run_cfg)
        return run_cfg


@dataclass
class ElasticRunResult:
    """Outcome + goodput accounting of a supervised run.

    ``losses`` covers the contiguous range ``[first_step, run.num_steps)``
    executed by surviving segments (losses computed by a crashed attempt
    died with it, as on a real machine). All times are virtual seconds
    on the session clock.
    """

    #: Global loss for steps ``first_step .. run.num_steps - 1``.
    losses: list[float]
    #: Step index of ``losses[0]``.
    first_step: int
    #: Relaunches after a failure.
    restarts: int
    #: How many times the world was shrunk (elastic restarts).
    shrinks: int
    checkpoint_steps: list[int]
    #: World size of each launch, in launch order.
    world_history: list[int]
    final_world_size: int
    final_ep_size: int
    #: Steps computed by crashed attempts past their last durable
    #: checkpoint — work that had to be redone.
    lost_steps: int
    #: Virtual makespan of the successful segments (productive time).
    useful_time: float
    #: Virtual makespan of crashed attempts (restart overhead).
    lost_time: float
    #: Virtual time spent waiting between relaunches.
    backoff_time: float
    #: Session-aggregated instrumentation (events, phases, traffic).
    context: RunContext
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        """Session makespan: useful + lost + backoff virtual seconds."""
        return self.useful_time + self.lost_time + self.backoff_time

    @property
    def goodput(self) -> float:
        """Fraction of session time that produced surviving step-work."""
        total = self.total_time
        return self.useful_time / total if total > 0 else 1.0

    @property
    def availability(self) -> float:
        """Fraction of session time the world was up and training."""
        total = self.total_time
        return (total - self.backoff_time) / total if total > 0 else 1.0

    def metrics_record(self) -> dict[str, Any]:
        """One flat record (for :class:`~repro.train.metrics.MetricsLogger`)."""
        record = dict(self.context.metrics_record())
        record.update(
            first_step=self.first_step,
            restarts=self.restarts,
            shrinks=self.shrinks,
            lost_steps=self.lost_steps,
            useful_time=self.useful_time,
            lost_time=self.lost_time,
            backoff_time=self.backoff_time,
            total_time=self.total_time,
            goodput=self.goodput,
            availability=self.availability,
            final_world_size=self.final_world_size,
            final_ep_size=self.final_ep_size,
        )
        return record


class Supervisor:
    """Drives a training job to completion through failures.

    Parameters
    ----------
    cfg:
        The run setup, including backoff and elasticity policy.
    faults:
        A persistent :class:`~repro.simmpi.FaultModel` shared by every
        launch (it re-draws failure times per launch and remembers
        excluded nodes), or a scripted :class:`~repro.simmpi.FaultPlan`
        injected into every launch. ``None`` = healthy machine.
    fault_plans:
        Alternative scripting hook (supersedes ``faults``):
        ``fault_plans[i]`` is injected into the i-th launch only
        (``None`` / past the end = healthy) — how tests and benches
        script deterministic failure sequences.

    Each launch models a Sunway machine and network of its own world size,
    so after a shrink the modelled machine matches the world.
    """

    def __init__(
        self,
        cfg: ElasticRunConfig,
        faults: Any | None = None,
        fault_plans: list[Any] | None = None,
    ):
        self.cfg = cfg
        self.faults = faults
        self.fault_plans = fault_plans

    # ------------------------------------------------------------------ #
    # Launch-plumbing helpers
    # ------------------------------------------------------------------ #

    def _plan_for(self, attempt: int) -> Any | None:
        if self.fault_plans is not None:
            return self.fault_plans[attempt] if attempt < len(self.fault_plans) else None
        return self.faults

    def _blame_key(self, rank: int | None) -> int | None:
        """Node (preferred) or rank to blame for a failure, if known."""
        if rank is None:
            return None
        node_of_rank = getattr(self.faults, "node_of_rank", None)
        if node_of_rank is not None:
            try:
                return int(node_of_rank(rank))
            except ReproError:
                return int(rank)
        return int(rank)

    def _shrunk(self, world: int, ep: int) -> tuple[int, int]:
        """The largest world of at most half this one that still replays the
        full-width run, which it divides (0 at world 1); shrink EP only if
        it must (keeps exactness)."""
        logical = self.cfg.run.world_size
        new_world = max(
            (d for d in range(1, world // 2 + 1) if logical % d == 0), default=0
        )
        new_ep = ep
        while new_ep > 1 and (
            new_world % new_ep != 0 or self.cfg.run.model.num_experts % new_ep != 0
        ):
            new_ep //= 2
        return new_world, new_ep

    # ------------------------------------------------------------------ #
    # The supervision loop
    # ------------------------------------------------------------------ #

    def run(self) -> ElasticRunResult:
        """Drive training to ``run.num_steps``; raise after ``max_restarts``
        consecutive failed launches."""
        cfg = self.cfg
        backoff_policy = cfg.backoff_policy()
        ckpt_dir = Path(cfg.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        session = RunContext(trace=cfg.run.trace, observe=cfg.run.observe)

        world = cfg.run.world_size
        ep = cfg.run.ep_size
        clock = 0.0
        useful_time = lost_time = backoff_time = 0.0
        lost_steps = 0
        restarts = 0
        shrinks = 0
        attempt = 0
        consecutive = 0
        blame: Counter[int] = Counter()
        world_history: list[int] = []
        loss_by_step: dict[int, float] = {}
        all_ckpts: set[int] = set()

        while True:
            if attempt > cfg.max_restarts:
                raise CommunicatorError(f"training failed {attempt} times; giving up")
            resume_dir, start = latest_snapshot(ckpt_dir)
            progress = SegmentProgress(completed_step=start, durable_step=start)
            run_cfg = cfg.training_config(world, ep)
            spec = SegmentSpec(
                run_cfg=run_cfg,
                logical_world=cfg.run.world_size,
                logical_ep=cfg.run.ep_size,
                checkpoint_every=cfg.checkpoint_every,
                checkpoint_dir=str(ckpt_dir),
                resume_dir=str(resume_dir) if resume_dir is not None else None,
                progress=progress,
                machine=sunway_machine(num_nodes=world) if cfg.run.model_compute_time else None,
            )
            world_history.append(world)
            launch = dict(
                attempt=attempt, world_size=world, ep_size=ep, start_step=start
            )
            session.record_event(
                "launch", t=clock, **launch,
                strategy=run_cfg.resolve_strategy().name,
            )
            launch_span = session.spans.begin(
                f"launch:{attempt}", clock, kind="launch", **launch
            )
            try:
                res = run_spmd(
                    run_elastic_segment,
                    world,
                    network=sunway_network(world),
                    timeout=cfg.run.timeout,
                    faults=self._plan_for(attempt),
                    args=(spec,),
                    trace=cfg.run.trace,
                    observe=cfg.run.observe,
                )
            except ConfigError:
                # A config that cannot launch is refused, not retried.
                raise
            except ReproError as exc:
                # A modelled failure: charge the crashed attempt's virtual
                # makespan and partial observations to the session, then
                # back off and relaunch. Programming errors propagate.
                attempt += 1
                restarts += 1
                consecutive += 1
                crash = post_mortem(exc)
                if crash.partial_context is not None:
                    session.absorb(crash.partial_context, clock_offset=clock)
                clock += crash.crashed_time
                session.spans.end(
                    launch_span, clock, outcome="failure", failure=crash.failure
                )
                lost_time += crash.crashed_time
                wasted = progress.completed_step - progress.durable_step
                lost_steps += wasted
                key = self._blame_key(crash.rank)
                # The flight fields reference the evidence; the full dump
                # was already folded into the session flight recorder via
                # the partial context.
                session.record_event(
                    "failure",
                    t=clock,
                    failure=crash.failure,
                    attempt=attempt - 1,
                    world_size=world,
                    rank=crash.rank,
                    node=key,
                    lost_steps=wasted,
                    durable_step=progress.durable_step,
                    **crash.flight_fields,
                )
                session.metrics.counter(
                    "session_failures", failure=crash.failure
                ).inc()
                session.metrics.counter("session_lost_steps").inc(wasted)
                if key is not None and cfg.elastic:
                    blame[key] += 1
                    new_world, new_ep = self._shrunk(world, ep)
                    if (
                        blame[key] >= cfg.shrink_after
                        and new_world >= cfg.min_world_size
                    ):
                        exclude = getattr(self.faults, "exclude_node", None)
                        if exclude is not None:
                            exclude(key)
                        session.record_event(
                            "elastic_restart",
                            t=clock,
                            node=key,
                            strikes=int(blame[key]),
                            from_world=world,
                            to_world=new_world,
                        )
                        session.record_event(
                            "reshard",
                            t=clock,
                            from_world=world,
                            to_world=new_world,
                            from_ep=ep,
                            to_ep=new_ep,
                            microsteps=cfg.run.world_size // new_world,
                        )
                        world, ep = new_world, new_ep
                        shrinks += 1
                        session.metrics.counter("session_shrinks").inc()
                        del blame[key]
                backoff = backoff_policy.delay(consecutive)
                clock += backoff
                backoff_time += backoff
                session.add_phase("backoff", backoff)
                session.record_event(
                    "backoff", t=clock, seconds=backoff, consecutive=consecutive
                )
                session.spans.add(
                    "backoff", clock - backoff, clock, parent=launch_span,
                    kind="backoff", seconds=backoff, consecutive=consecutive,
                )
                session.metrics.counter("session_restarts").inc()
                session.metrics.histogram("session_backoff_seconds").observe(backoff)
                continue

            # Success: fold the segment into the session and finish.
            attempt += 1
            consecutive = 0
            if res.context is not None:
                session.absorb(res.context, clock_offset=clock)
            clock += res.simulated_time
            session.spans.end(launch_span, clock, outcome="complete")
            useful_time += res.simulated_time
            seg = res.returns[0]
            for i, value in enumerate(seg["losses"]):
                loss_by_step[seg["start"] + i] = value
            all_ckpts.update(seg["ckpts"])
            session.record_event(
                "complete",
                t=clock,
                attempt=attempt - 1,
                world_size=world,
                steps=len(seg["losses"]),
            )
            session.metrics.gauge("session_final_world_size").set(world)
            session.metrics.gauge("session_useful_time").set(useful_time)
            session.metrics.gauge("session_lost_time").set(lost_time)
            session.metrics.gauge("session_backoff_time").set(backoff_time)
            break

        covered = sorted(loss_by_step)
        return ElasticRunResult(
            losses=[loss_by_step[s] for s in covered],
            first_step=covered[0] if covered else 0,
            restarts=restarts,
            shrinks=shrinks,
            checkpoint_steps=sorted(all_ckpts),
            world_history=world_history,
            final_world_size=world,
            final_ep_size=ep,
            lost_steps=lost_steps,
            useful_time=useful_time,
            lost_time=lost_time,
            backoff_time=backoff_time,
            context=session,
            meta={
                "world_size": cfg.run.world_size,
                "ep_size": cfg.run.ep_size,
                "elastic": cfg.elastic,
            },
        )
