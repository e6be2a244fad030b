"""Fault-tolerant serving fleet: replicated engines behind a retry router.

One serving world (:func:`~repro.serve.engine.run_serving`) dies with its
ranks: a single injected fault kills every in-flight request. At BaGuaLu
scale that is not an acceptable serving story — production inference runs
N independent replicas behind a router that re-dispatches the victims of
a crash to survivors. This module reproduces that loop on the simulated
machine:

* **replicas** — each replica is an independent ``ep_size``-rank simmpi
  world running the unmodified continuous-batching engine, with its own
  seeded :class:`~repro.simmpi.FaultModel` (MTBF crashes), so replica
  failure streams are independent and reproducible;
* **router** — :class:`~repro.serve.router.ReplicaRouter` scores replicas
  by estimated completion (health + backoff + learned service time) and
  assigns each pending request deterministically;
* **retries** — a crashed replica surfaces as a
  :class:`~repro.errors.ReproError` with partial clocks/context attached;
  every request it held is re-dispatched to a survivor and *re-prefilled*
  (the KV cache died with the replica). Decoding is deterministic given
  the prompt, so a re-dispatched request produces exactly the tokens the
  crashed attempt would have. Requests that exhaust ``retry_max`` are
  explicitly evicted (``reason="retries"``) — never silently lost;
* **hedging** — optionally, a request whose service latency exceeds
  ``hedge_after_ms`` is speculatively re-dispatched to a second replica;
  the earlier completion wins (both produce identical tokens);
* **admission control** — the per-replica engine sheds tier >=
  ``serve.shed_tier`` arrivals under backlog and evicts the
  lowest-priority slot under KV-budget pressure (see
  :class:`~repro.serve.engine.ServeConfig`), so premium-tier latency
  degrades gracefully instead of collapsing.

All fleet lifecycle events (``fleet_dispatch``, ``replica_crash``,
``redispatch``, ``retries_exhausted``, ``hedge``, ``timeout``) land on one
session :class:`~repro.simmpi.RunContext` that absorbs every segment's
context — including the partial context and flight-recorder dump of
crashed attempts — exactly like the elastic training supervisor.

A fleet of one with faults disabled collapses to a single
:func:`run_serving` call on the identical workload, so the resilient path
is a strict superset of the baseline (bitwise, by regression test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.errors import CommunicatorError, ConfigError, ReproError
from repro.obs.slo import SLOMonitor, SLOObjective, default_burn_windows
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.supervisor import post_mortem
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.engine import (
    ServeConfig,
    ServeResult,
    _run_serving,
    build_requests,
    request_span_tree,
    tally,
)
from repro.serve.router import ReplicaRouter
from repro.serve.scheduler import Request
from repro.simmpi import RunContext
from repro.simmpi.faults import FaultModel
from repro.train.metrics import LatencyStats
from repro.utils.seeding import derive_seed

__all__ = ["FleetConfig", "FleetResult", "run_fleet_serving"]


@dataclass(frozen=True)
class FleetConfig:
    """A replicated serving deployment over one :class:`ServeConfig`.

    ``mtbf`` is mean virtual seconds between crashes *per replica* (None:
    healthy fleet). ``retry_max`` bounds re-dispatches per request;
    ``hedge_after_ms`` / ``request_timeout_ms`` are service-latency
    thresholds (virtual milliseconds) for speculative re-dispatch and
    forced retry. Backoff knobs feed the shared
    :class:`~repro.resilience.BackoffPolicy` — the same schedule the
    training supervisor waits between relaunches.
    """

    serve: ServeConfig
    replicas: int = 2
    mtbf: float | None = None
    retry_max: int = 3
    hedge_after_ms: float | None = None
    request_timeout_ms: float | None = None
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    #: Safety valve on the dispatch loop (retries bound it in practice).
    max_rounds: int = 64
    #: Metric-driven elastic capacity (None: fixed fleet). With a policy
    #: set, dispatch becomes *windowed* — each round assigns only work
    #: ready within ``dispatch_window_s`` — so scale decisions interleave
    #: with arrivals instead of the whole workload landing in round one.
    autoscale: AutoscalerConfig | None = None
    #: Declarative SLOs monitored over the run; burn-rate transitions
    #: land as ``slo_alert`` / ``slo_resolve`` events and spans.
    slos: tuple[SLOObjective, ...] = ()
    #: Error-budget horizon the burn-rate windows scale from.
    slo_horizon_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if self.autoscale is not None and not (
            self.autoscale.min_replicas
            <= self.replicas
            <= self.autoscale.max_replicas
        ):
            raise ConfigError(
                f"initial replicas ({self.replicas}) must lie in the "
                f"autoscale range [{self.autoscale.min_replicas}, "
                f"{self.autoscale.max_replicas}]"
            )
        if not self.slo_horizon_s > 0:
            raise ConfigError(
                f"slo_horizon_s must be > 0, got {self.slo_horizon_s}"
            )
        if self.mtbf is not None and not self.mtbf > 0:
            raise ConfigError(
                f"mtbf must be > 0 virtual seconds, got {self.mtbf}"
            )
        if self.retry_max < 0:
            raise ConfigError(f"retry_max must be >= 0, got {self.retry_max}")
        if self.hedge_after_ms is not None:
            if not self.hedge_after_ms > 0:
                raise ConfigError(
                    f"hedge_after_ms must be > 0, got {self.hedge_after_ms}"
                )
            if self.replicas < 2:
                raise ConfigError(
                    "hedging needs >= 2 replicas (a hedge never re-uses "
                    "the primary)"
                )
        if self.request_timeout_ms is not None and not self.request_timeout_ms > 0:
            raise ConfigError(
                f"request_timeout_ms must be > 0, got {self.request_timeout_ms}"
            )
        if self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        # Delegated: BackoffPolicy owns schedule validation, so the fleet
        # and the training supervisor reject the same inputs.
        self.backoff_policy()

    def backoff_policy(self) -> BackoffPolicy:
        """Capped-exponential schedule crashed replicas wait before reuse."""
        return BackoffPolicy(base=self.backoff_base, cap=self.backoff_cap)


@dataclass
class FleetResult:
    """Outcome of a fleet run; all times are virtual seconds.

    Every admitted request appears in ``requests`` exactly once, with a
    terminal state (``done`` / ``evicted`` / ``shed``) and a ``reason``
    for non-completion — the zero-silent-loss invariant the tests sweep.
    """

    config: FleetConfig
    completed: int
    evicted: int
    shed: int
    decode_tokens: int
    #: Fleet makespan (last request outcome / segment end).
    simulated_time: float
    ttft: LatencyStats
    token_latency: LatencyStats
    requests: list[dict] = field(default_factory=list)
    crashes: int = 0
    retries: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    timeouts: int = 0
    #: Requests shed per tier (admission control).
    shed_by_tier: dict[int, int] = field(default_factory=dict)
    replica_stats: list[dict] = field(default_factory=list)
    context: Any = None
    #: Autoscaler activity (zero on fixed fleets).
    scale_ups: int = 0
    scale_downs: int = 0
    replicas_final: int = 0
    #: Live :class:`~repro.obs.slo.SLOMonitor` objects (burn rates,
    #: alert transitions) — feed to :func:`~repro.obs.slo.slo_report`.
    slo: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def goodput(self) -> float:
        """Completed decode tokens per virtual second of fleet makespan."""
        if self.simulated_time <= 0:
            return 0.0
        return self.decode_tokens / self.simulated_time

    def metrics_record(self) -> dict[str, Any]:
        """One flat summary record for :class:`MetricsLogger` / reports."""
        record = {
            "replicas": self.config.replicas,
            "mtbf": self.config.mtbf,
            "num_requests": self.config.serve.num_requests,
            "completed": self.completed,
            "evicted": self.evicted,
            "shed": self.shed,
            "decode_tokens": self.decode_tokens,
            "simulated_time": self.simulated_time,
            "goodput_tok_s": self.goodput,
            "crashes": self.crashes,
            "retries": self.retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "timeouts": self.timeouts,
        }
        for tier in sorted(self.shed_by_tier):
            record[f"shed_tier{tier}"] = self.shed_by_tier[tier]
        record.update(self.ttft.summary(prefix="ttft_"))
        if self.config.autoscale is not None:
            record["scale_ups"] = self.scale_ups
            record["scale_downs"] = self.scale_downs
            record["replicas_final"] = self.replicas_final
        return record


@dataclass
class _Flight:
    """Fleet-side state of one request across dispatch attempts."""

    template: Request
    #: Earliest global virtual time the request may be (re-)dispatched.
    ready: float
    attempts: int = 0
    outcome: dict | None = None
    #: Global admission time in the attempt that produced ``outcome``.
    admitted: float | None = None
    #: Failed/speculative attempt intervals (global time) for span trees:
    #: ``{"kind": crash|timeout|hedge, "replica", "t_start", "t_end", ...}``.
    history: list[dict] = field(default_factory=list)

    @property
    def rid(self) -> int:
        return self.template.rid

    def remember(
        self, kind: str, replica: int, t_start: float, t_end: float, **marks: Any
    ) -> None:
        """Remember one failed or speculative attempt (``marks``: a hedge's
        ``winner``/``role``)."""
        self.history.append(
            {"kind": kind, "replica": replica, "t_start": t_start,
             "t_end": t_end, **marks}
        )

    def resolve(
        self, rec: dict, replica: int | None, *, finish: float,
        ttft: float | None = None, latency: float | None = None,
        **served: float | None,
    ) -> None:
        """Record the terminal outcome: ``rec``'s state/reason/tier/tokens
        at global times (one key order for every exit path; ``served`` =
        the ``dispatch``/``first_token`` times of a completion)."""
        self.outcome = {
            "rid": self.rid,
            "tier": rec["tier"],
            "state": rec["state"],
            "reason": rec["reason"],
            "arrival": self.template.arrival,
            "attempts": self.attempts,
            "replica": replica,
            **served,
            "finish": finish,
            "generated": rec["generated"],
            "tokens": rec["tokens"],
            "ttft": ttft,
            "latency": latency,
            "hedged": False,
        }

    def served(self, rec: dict, seg_t0: float) -> dict[str, float | None]:
        """A completed segment record's times shifted into global time
        (segment-local arrival = dispatch; TTFT and latency run from the
        request's *original* arrival)."""
        dispatch = seg_t0 + rec["arrival"]
        finish = seg_t0 + rec["finish"]
        first_token = None if rec["ttft"] is None else dispatch + rec["ttft"]
        arrival = self.template.arrival
        return {
            "dispatch": dispatch,
            "first_token": first_token,
            "finish": finish,
            "ttft": None if first_token is None else first_token - arrival,
            "latency": finish - arrival,
        }


def _fresh(template: Request, arrival: float) -> Request:
    """A pristine copy for one dispatch attempt (engines mutate requests)."""
    return Request(
        rid=template.rid,
        prompt=template.prompt.copy(),
        max_new_tokens=template.max_new_tokens,
        arrival=arrival,
        slo=template.slo,
        tier=template.tier,
    )


def _signal_time(out: dict) -> float:
    """When an outcome becomes visible to windowed monitors (global time)."""
    if out["state"] == "done" and out.get("first_token") is not None:
        return out["first_token"]
    return out["finish"]


class _Fleet:
    """Everything one fleet run knows, and the steps of its loop.

    :meth:`run` is the loop; each step is a method that reads and writes
    this state only, so a test can drive one at a time. ``run_engine`` is
    the engine call, ``(serve_cfg, requests=, faults=) -> ServeResult``
    (``engine._run_serving``'s shape with its model pool bound; tests
    script a replica's segments without rank threads).
    """

    def __init__(self, cfg: FleetConfig, run_engine: Callable[..., ServeResult]):
        self.cfg = cfg
        self.run_engine = run_engine
        serve = cfg.serve
        self.router = ReplicaRouter(cfg.replicas, backoff=cfg.backoff_policy())
        self.session = RunContext(trace=serve.trace, observe=serve.observe)
        #: Replica ``r``'s persistent crash model (grown by scale-ups).
        self.faults = [self.replica_faults(r) for r in range(cfg.replicas)]
        self.flights = [
            _Flight(template=req, ready=req.arrival)
            for req in build_requests(serve)
        ]
        self.by_rid = {f.rid: f for f in self.flights}
        self.hedge_s = (
            None if cfg.hedge_after_ms is None else cfg.hedge_after_ms / 1e3
        )
        self.timeout_s = (
            None if cfg.request_timeout_ms is None
            else cfg.request_timeout_ms / 1e3
        )
        self.monitors = [
            SLOMonitor(obj, windows=default_burn_windows(cfg.slo_horizon_s))
            for obj in cfg.slos
        ]
        self.scaler = (
            Autoscaler(cfg.autoscale) if cfg.autoscale is not None else None
        )
        self.token_latency = LatencyStats("token")
        #: The :class:`FleetResult` activity counters, by field name.
        self.counts = dict.fromkeys(
            ("crashes", "retries", "hedges", "hedge_wins", "timeouts",
             "scale_ups", "scale_downs"), 0,
        )
        #: Fleet makespan so far (last segment end / crash instant).
        self.clock = 0.0
        self.rounds = 0
        self.dispatch_clock = 0.0
        self.slo_clock = 0.0
        #: Requests whose outcome the monitors have already seen.
        self.signalled: set[int] = set()

    def replica_faults(self, r: int) -> FaultModel | None:
        """Replica ``r``'s own seeded crash stream (None: healthy fleet)."""
        if self.cfg.mtbf is None:
            return None
        return FaultModel(
            seed=derive_seed(self.cfg.serve.seed, "fleet-replica", r),
            mtbf=self.cfg.mtbf,
        )

    @property
    def unresolved(self) -> list[_Flight]:
        return [f for f in self.flights if f.outcome is None]

    def count(self, what: str, metric: str, n: int = 1, **labels: Any) -> None:
        """Bump result counter ``what`` and its registry twin together."""
        self.counts[what] += n
        self.session.metrics.counter(metric, **labels).inc(n)

    # ------------------------------------------------------------------ #
    # The steps of one round
    # ------------------------------------------------------------------ #

    def dispatch_round(self) -> dict[int, list[_Flight]]:
        """Assign pending requests to the replicas expected to finish them
        first; returns ``{replica: group}``.

        Under autoscaling dispatch is *windowed* — only work ready inside
        the next dispatch window is assigned, so scale decisions interleave
        with the arrival process instead of round one swallowing the ramp —
        and an empty window returns ``{}`` after jumping the dispatch clock
        to the next ready time.
        """
        cfg = self.cfg
        self.rounds += 1
        if self.rounds > cfg.max_rounds:
            raise CommunicatorError(
                f"fleet dispatch did not converge in {cfg.max_rounds} rounds"
            )
        pending = sorted(self.unresolved, key=lambda f: (f.ready, f.rid))
        if self.scaler is not None:
            horizon = self.dispatch_clock + cfg.autoscale.dispatch_window_s
            batch = [f for f in pending if f.ready <= horizon]
            self.dispatch_clock = (
                horizon if batch else min(f.ready for f in pending)
            )
            pending = batch
        assignment: dict[int, list[_Flight]] = {}
        for flight in pending:
            choice = self.router.pick(flight.ready)
            assignment.setdefault(choice.index, []).append(flight)
            # Count queued work immediately so the next pick balances.
            self.router.on_dispatch(choice.index, 1)
        return assignment

    def run_segment(
        self, replica: int, seg_t0: float, ready: dict[int, float]
    ) -> tuple[ServeResult | None, float]:
        """One engine world on ``replica``'s fault stream from ``seg_t0``,
        serving the requests ``ready`` maps (rid -> global ready time);
        returns ``(result, end_t)``. A crash is charged to the session and
        the replica's backoff, and returns ``(None, crash instant)``."""
        session, router = self.session, self.router
        requests = [
            _fresh(self.by_rid[rid].template, max(0.0, t - seg_t0))
            for rid, t in sorted(ready.items(), key=lambda kv: (kv[1], kv[0]))
        ]
        session.record_event(
            "fleet_dispatch", t=seg_t0, replica=replica, requests=len(requests)
        )
        router.on_dispatch(replica, len(requests))
        try:
            result = self.run_engine(
                self.cfg.serve, requests=requests, faults=self.faults[replica]
            )
        except ReproError as exc:
            crash = post_mortem(exc)
            end_t = seg_t0 + crash.crashed_time
            if crash.partial_context is not None:
                session.absorb(crash.partial_context, clock_offset=seg_t0, world=replica)
            session.record_event(
                "replica_crash", t=end_t, replica=replica, failure=crash.failure,
                rank=crash.rank, requests=len(requests),
                down_until=router.on_crash(replica, end_t), **crash.flight_fields,
            )
            self.count("crashes", "fleet_crashes", failure=crash.failure)
            result = None
        else:
            end_t = seg_t0 + result.simulated_time
            if result.context is not None:
                session.absorb(result.context, clock_offset=seg_t0, world=replica)
            router.on_segment_done(replica, seg_t0, end_t, result.completed)
        self.clock = max(self.clock, end_t)
        return result, end_t

    def serve_group(self, replica: int, group: list[_Flight]) -> list[_Flight]:
        """Run ``group`` as one segment on ``replica`` and fold it back:
        a crash sends every member through :meth:`retry_or_evict`, a
        finished segment's records through :meth:`settle`. Returns the
        flights it completed (the hedge candidates)."""
        state = self.router.states[replica]
        # dispatch_round already queued the group; reset before the
        # segment re-counts it, so outstanding is not double-counted.
        state.outstanding = 0
        seg_t0 = state.available_at
        result, end_t = self.run_segment(
            replica, seg_t0, {f.rid: f.ready for f in group}
        )
        if result is None:
            for flight in group:
                flight.remember("crash", replica, max(seg_t0, flight.ready), end_t)
                self.retry_or_evict(flight, end_t, why="crash")
            return []
        done = []
        for rec in result.requests:
            flight = self.by_rid[rec["rid"]]
            self.settle(flight, rec, replica, seg_t0,
                        result.admitted_at.get(rec["rid"]))
            if flight.outcome is not None and flight.outcome["state"] == "done":
                done.append(flight)
        self.token_latency.extend(result.token_latency.samples)
        return done

    def retry_or_evict(self, flight: _Flight, at: float, why: str) -> None:
        """Schedule a re-dispatch, or explicitly evict past the budget."""
        flight.attempts += 1
        if flight.attempts > self.cfg.retry_max:
            flight.resolve(
                {"tier": flight.template.tier, "state": "evicted",
                 "reason": "retries", "generated": 0, "tokens": []},
                None, finish=at,
            )
            self.session.record_event(
                "retries_exhausted", t=at, rid=flight.rid,
                attempts=flight.attempts,
            )
            self.session.metrics.counter("fleet_retries_exhausted").inc()
        else:
            # A replica can crash before one of its requests even arrived;
            # re-dispatch never schedules ahead of the original arrival.
            flight.ready = max(at, flight.template.arrival)
            self.session.record_event(
                "redispatch", t=at, rid=flight.rid, attempt=flight.attempts,
                why=why,
            )
            self.count("retries", "fleet_retries", why=why)

    def settle(
        self, flight: _Flight, rec: dict, replica: int, seg_t0: float,
        admitted_local: float | None = None,
    ) -> None:
        """Fold one segment record into the flight's global outcome (or,
        past ``request_timeout_ms`` of service, into a timeout + retry)."""
        if rec["state"] != "done":
            # Explicit in-segment eviction (slo/cache) or admission shed —
            # a terminal outcome with its reason preserved.
            times = {"finish": seg_t0 + rec["finish"]}
        else:
            times = flight.served(rec, seg_t0)
            if self.timeout_s is not None and rec["latency"] > self.timeout_s:
                give_up = times["dispatch"] + self.timeout_s
                self.session.record_event(
                    "timeout", t=give_up, rid=flight.rid, service=rec["latency"]
                )
                self.count("timeouts", "fleet_timeouts")
                flight.remember("timeout", replica, times["dispatch"], give_up)
                self.retry_or_evict(flight, give_up, why="timeout")
                return
        flight.resolve(rec, replica, **times)
        if admitted_local is not None:
            flight.admitted = seg_t0 + admitted_local

    def hedge(self, done: list[_Flight]) -> None:
        """Speculatively re-dispatch the round's slow completions to second
        replicas; the earlier finish wins (both decode identical tokens)."""
        if self.hedge_s is None:
            return
        groups: dict[int, dict[int, float]] = {}
        for flight in done:
            out = flight.outcome
            if out["finish"] - out["dispatch"] <= self.hedge_s:
                continue
            start = out["dispatch"] + self.hedge_s
            alt = self.router.pick(start, exclude=(out["replica"],))
            if alt is None:
                continue
            out["hedged"] = True
            groups.setdefault(alt.index, {})[flight.rid] = start
        for replica in sorted(groups):
            ready = groups[replica]
            seg_t0 = max(
                self.router.states[replica].available_at, min(ready.values())
            )
            for rid in ready:
                self.session.record_event(
                    "hedge", t=seg_t0, rid=rid,
                    primary=self.by_rid[rid].outcome["replica"], replica=replica,
                )
            self.count("hedges", "fleet_hedges", len(ready))
            result, seg_end = self.run_segment(replica, seg_t0, ready)
            if result is None:
                # Hedge replica crashed; primaries stand. The doomed
                # speculative attempts still show in the span trees.
                for rid, start in ready.items():
                    self.by_rid[rid].remember(
                        "hedge", replica, max(seg_t0, start), seg_end,
                        winner=False, role="hedge",
                    )
                continue
            for rec in result.requests:
                if rec["state"] != "done":
                    continue
                flight = self.by_rid[rec["rid"]]
                served, out = flight.served(rec, seg_t0), flight.outcome
                wins = served["finish"] < out["finish"]
                if wins:
                    self.count("hedge_wins", "fleet_hedge_wins")
                    # The beaten primary becomes the off-path attempt.
                    flight.remember(
                        "hedge", out["replica"], out["dispatch"], out["finish"],
                        winner=False, role="primary",
                    )
                    out.update(replica=replica, **served)
                    flight.admitted = seg_t0 + result.admitted_at[rec["rid"]]
                # For a winner this is an explicit marker: the on-path
                # prefill/decode spans carry the same interval.
                flight.remember(
                    "hedge", replica, served["dispatch"], served["finish"],
                    winner=wins, role="hedge",
                )

    def feed_monitors(self) -> None:
        """Show the outcomes resolved since the last call to the windowed
        monitors (TTFT histogram, autoscaler, SLO burn rates), each at its
        own signal time, then evaluate the SLOs at the fleet clock."""
        session = self.session
        newly = sorted(
            (f for f in self.flights
             if f.outcome is not None and f.rid not in self.signalled),
            key=lambda f: (_signal_time(f.outcome), f.rid),
        )
        for flight in newly:
            self.signalled.add(flight.rid)
            out = flight.outcome
            t_sig = _signal_time(out)
            if out["state"] == "done" and out["ttft"] is not None:
                session.metrics.histogram(
                    "fleet_ttft_seconds", tier=out["tier"]
                ).observe(out["ttft"])
                if self.scaler is not None:
                    self.scaler.observe_ttft(t_sig, out["ttft"], out["tier"])
                value = out["ttft"]
            else:
                # Shed / evicted requests burn the error budget outright.
                value = float("inf")
            # Evaluate at the signal's own timestamp (monotone-clamped):
            # burn windows are narrow relative to a round, so waiting for
            # the round's end would inspect them after they drained.
            self.slo_clock = max(self.slo_clock, t_sig)
            for mon in self.monitors:
                mon.observe(t_sig, value, tier=out["tier"])
            for mon in self.monitors:
                mon.evaluate(self.slo_clock, session)
        self.router.emit(session.metrics, self.clock)
        self.slo_clock = max(self.slo_clock, self.clock)
        for mon in self.monitors:
            mon.evaluate(self.slo_clock, session)

    def autoscale(self) -> None:
        """Ask the autoscaler for one decision and apply it: add a replica
        (with its own fault stream) or drain one. No-op on a fixed fleet."""
        if self.scaler is None:
            return
        router = self.router
        backlog = len(self.unresolved)
        decision = self.scaler.decide(self.clock, router.active_count, backlog)
        if decision["action"] == "up":
            state = router.add_replica(
                free_at=self.clock + self.cfg.autoscale.spawn_delay_s
            )
            self.faults.append(self.replica_faults(state.index))
            self.scaled("up", state.index, decision, backlog)
        elif decision["action"] == "down":
            cand = router.drain_candidate()
            if (
                cand is not None
                and router.active_count > self.cfg.autoscale.min_replicas
            ):
                router.drain(cand.index)
                self.scaled("down", cand.index, decision, backlog)

    def scaled(
        self, direction: str, replica: int, decision: dict, backlog: int
    ) -> None:
        """Event + span instant + counter for one applied scale decision."""
        kind = f"scale_{direction}"
        replicas = self.router.active_count
        self.session.record_event(
            kind, t=self.clock, replica=replica, reason=decision["reason"],
            ttft_p95=decision["ttft_p95"], backlog=backlog, replicas=replicas,
        )
        self.session.spans.instant(
            f"{kind}:{replica}", self.clock, kind="autoscale", replica=replica,
            reason=decision["reason"], replicas=replicas,
        )
        self.counts[f"{kind}s"] += 1
        self.session.metrics.counter(f"fleet_{kind}").inc()

    def run(self) -> FleetResult:
        """The loop: dispatch, serve each loaded replica, hedge, then the
        once-per-round monitors and autoscaler, until nothing is unresolved."""
        while self.unresolved:
            assignment = self.dispatch_round()
            if not assignment:
                continue  # empty dispatch window: the clock moved on
            done: list[_Flight] = []
            for replica in sorted(assignment):
                done += self.serve_group(replica, assignment[replica])
            self.hedge(done)
            self.feed_monitors()
            self.autoscale()
        return self.result()

    def result(self) -> FleetResult:
        """Span trees, the outcome tally and its registry twins, and the
        :class:`FleetResult` (call once, when nothing is unresolved)."""
        cfg, session = self.cfg, self.session
        if session.spans.enabled:
            # rid order after the loop settled: deterministic span ids.
            for flight in sorted(self.flights, key=lambda f: f.rid):
                out = flight.outcome
                request_span_tree(
                    session.spans, out, out.get("first_token"),
                    flight.admitted, flight.history,
                    root_attrs={k: out[k] for k in ("attempts", "replica", "hedged")},
                    where={"replica": out["replica"]},
                )
        records = sorted((f.outcome for f in self.flights), key=lambda r: r["rid"])
        counts = tally(records)
        makespan = max([self.clock] + [r["finish"] for r in records])
        registry = session.metrics
        registry.counter("fleet_completed").inc(counts["completed"])
        registry.counter("fleet_evicted").inc(counts["evicted"])
        for tier, n in sorted(counts["shed_by_tier"].items()):
            registry.counter("fleet_shed", tier=tier).inc(n)
        registry.counter("fleet_decode_tokens").inc(counts["decode_tokens"])
        for mon in self.monitors:
            # Close out any alert still firing at end of run.
            mon.evaluate(makespan, session)
        result = FleetResult(
            config=cfg,
            **counts,
            **self.counts,
            simulated_time=makespan,
            token_latency=self.token_latency,
            requests=records,
            replica_stats=[
                {
                    "replica": s.index,
                    "completed": s.completed,
                    "crashes": s.crashes,
                    "busy_time": s.busy_time,
                    "free_at": s.free_at,
                    "draining": s.draining,
                }
                for s in self.router.states
            ],
            context=session,
            replicas_final=self.router.active_count,
            slo=self.monitors,
            meta={
                "replicas": cfg.replicas,
                "ep_size": cfg.serve.ep_size,
                "rounds": self.rounds,
            },
        )
        registry.gauge("fleet_goodput_tok_s").set(result.goodput)
        registry.gauge("fleet_makespan_seconds").set(makespan)
        return result


def run_fleet_serving(cfg: FleetConfig) -> FleetResult:
    """Serve the workload on ``replicas`` independent engine worlds.

    Each dispatch round assigns every pending request to the replica the
    router expects to finish it first, runs one engine segment per loaded
    replica (arrivals shifted into segment-local time), and folds the
    outcomes back into global time. Crashed segments re-dispatch their
    requests to survivors; slow completions are hedged or timed out per
    the config. The loop terminates because every round either resolves a
    request or consumes one of its ``retry_max`` attempts.

    Each EP rank's model is built once per call and rebound to every later
    segment's world (:func:`~repro.serve.engine._serve_model`); the pool
    dies with the call.
    """
    return _Fleet(cfg, partial(_run_serving, pool={})).run()
