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
from typing import Any

from repro.errors import CommunicatorError, ConfigError, ReproError
from repro.obs.slo import SLOMonitor, SLOObjective, default_burn_windows
from repro.resilience.backoff import BackoffPolicy
from repro.resilience.supervisor import classify_failure
from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.engine import ServeConfig, build_requests, run_serving
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
    backoff_factor: float = 2.0
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
        if self.slo_horizon_s <= 0:
            raise ConfigError(
                f"slo_horizon_s must be > 0, got {self.slo_horizon_s}"
            )
        if self.mtbf is not None and self.mtbf <= 0:
            raise ConfigError(
                f"mtbf must be > 0 virtual seconds, got {self.mtbf}"
            )
        if self.retry_max < 0:
            raise ConfigError(f"retry_max must be >= 0, got {self.retry_max}")
        if self.hedge_after_ms is not None:
            if self.hedge_after_ms <= 0:
                raise ConfigError(
                    f"hedge_after_ms must be > 0, got {self.hedge_after_ms}"
                )
            if self.replicas < 2:
                raise ConfigError(
                    "hedging needs >= 2 replicas (a hedge never re-uses "
                    "the primary)"
                )
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
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
        return BackoffPolicy(
            base=self.backoff_base,
            factor=self.backoff_factor,
            cap=self.backoff_cap,
        )


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
    hedged: bool = False
    outcome: dict | None = None
    #: Failed/speculative attempt intervals (global time) for span trees:
    #: ``{"kind": crash|timeout|hedge, "t_start", "t_end", "replica", ...}``.
    history: list[dict] = field(default_factory=list)

    @property
    def rid(self) -> int:
        return self.template.rid

    def resolve(
        self,
        *,
        tier: int,
        state: str,
        reason: str | None,
        replica: int | None,
        finish: float | None,
        generated: int,
        tokens: list[int],
        ttft: float | None = None,
        latency: float | None = None,
        **served: float | None,
    ) -> None:
        """Record the terminal outcome (one key order for every exit path;
        ``served`` = the ``dispatch``/``first_token`` times of a completion)."""
        self.outcome = {
            "rid": self.rid,
            "tier": tier,
            "state": state,
            "reason": reason,
            "arrival": self.template.arrival,
            "attempts": self.attempts,
            "replica": replica,
            **served,
            "finish": finish,
            "generated": generated,
            "tokens": tokens,
            "ttft": ttft,
            "latency": latency,
            "hedged": self.hedged,
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


def _crash_fields(exc: ReproError) -> dict[str, Any]:
    """Flight-recorder evidence for a crash event (supervisor convention)."""
    fields: dict[str, Any] = {}
    flight = getattr(exc, "flight_dump", None)
    if flight is not None:
        blamed = getattr(exc, "rank", None)
        fields["flight_events"] = sum(
            len(v) for v in flight.get("ranks", {}).values()
        )
        fields["flight_last_op"] = (
            flight.get("last_op", {}).get(blamed) if blamed is not None else None
        )
    return fields


def _signal_time(out: dict) -> float:
    """When an outcome becomes visible to windowed monitors (global time)."""
    if out["state"] == "done" and out.get("first_token") is not None:
        return out["first_token"]
    if out.get("finish") is not None:
        return out["finish"]
    return out["arrival"]


def _emit_request_spans(
    session: RunContext, flights: list[_Flight], admitted_g: dict[int, float]
) -> None:
    """One causal span tree per request on the session tracer.

    Root = the request's whole life ``[arrival, finish]``; on-path
    children partition it (with explicit gaps) into failed attempts
    (``retry``), queue wait, prefill, and decode — the accounting
    invariant :func:`~repro.obs.spans.span_coverage` checks. Hedge
    attempts run *concurrently* with the primary, so they attach as
    off-path ``hedge`` children (winner/loser marked) excluded from the
    sum. Emitted in rid order after the dispatch loop settles, so span
    ids are deterministic.
    """
    spans = session.spans
    if not spans.enabled:
        return
    for flight in sorted(flights, key=lambda f: f.rid):
        out = flight.outcome
        if out is None:  # pragma: no cover - loop guarantees resolution
            continue
        arrival = out["arrival"]
        fails = sorted(
            (h for h in flight.history if h["kind"] in ("crash", "timeout")),
            key=lambda h: h["t_start"],
        )
        finish = out["finish"]
        if out["state"] == "done":
            # Root duration IS the recorded latency; failed attempts are
            # clamped inside it below.
            root_end = finish
        else:
            root_end = max(
                [arrival]
                + ([finish] if finish is not None else [])
                + [h["t_end"] for h in fails]
            )
        root = spans.add(
            f"request:{flight.rid}",
            arrival,
            root_end,
            kind="request",
            rid=flight.rid,
            state=out["state"],
            reason=out["reason"],
            tier=out["tier"],
            attempts=flight.attempts,
            replica=out["replica"],
            hedged=flight.hedged,
        )
        # On-path children must partition [arrival, root_end] without
        # overlap. Crash re-dispatch can move *backwards* in virtual time
        # (a survivor's segment may start before the failed segment's
        # recorded end), so every interval is clamped monotonically: no
        # child starts before the previous one ended or escapes the root.
        cursor = arrival

        def clamp(s: float, e: float) -> tuple[float, float]:
            e = min(max(cursor, e), root_end)
            return min(max(cursor, s), e), e

        for i, h in enumerate(fails):
            s, e = clamp(h["t_start"], h["t_end"])
            spans.add(
                "attempt", s, e,
                parent=root,
                kind="retry",
                why=h["kind"],
                replica=h["replica"],
                attempt=i,
            )
            cursor = e
        adm = admitted_g.get(flight.rid)
        if out["state"] == "done":
            first = out["first_token"]
            if adm is None:
                adm = out["dispatch"]
            adm = min(max(cursor, adm), root_end)
            if adm > cursor:
                spans.add("queue", cursor, adm, parent=root, kind="queue",
                          replica=out["replica"])
            spans.instant("admission", adm, parent=root, kind="admission",
                          tier=out["tier"], replica=out["replica"])
            if first is not None:
                first = min(max(adm, first), root_end)
                spans.add("prefill", adm, first, parent=root, kind="prefill",
                          replica=out["replica"])
                spans.add("decode", first, root_end, parent=root,
                          kind="decode", replica=out["replica"],
                          tokens=out["generated"])
            else:  # pragma: no cover - done implies a first token
                spans.add("prefill", adm, root_end, parent=root,
                          kind="prefill", replica=out["replica"])
        elif finish is not None:
            if adm is not None and adm > cursor:
                # Admitted, then evicted mid-service (slo/cache/preempt).
                adm = min(adm, root_end)
                spans.add("queue", cursor, adm, parent=root, kind="queue",
                          replica=out["replica"])
                spans.add("service", adm, max(adm, finish), parent=root,
                          kind="decode", replica=out["replica"],
                          reason=out["reason"])
            elif finish > cursor:
                # Shed or evicted while still waiting for a slot.
                spans.add("queue", cursor, finish, parent=root,
                          kind="queue", reason=out["reason"])
        for h in flight.history:
            if h["kind"] != "hedge":
                continue
            spans.add(
                "hedge",
                h["t_start"],
                h["t_end"],
                parent=root,
                kind="hedge",
                replica=h["replica"],
                winner=h.get("winner", False),
                role=h.get("role", "hedge"),
            )


def run_fleet_serving(cfg: FleetConfig, network: Any | None = None) -> FleetResult:
    """Serve the workload on ``replicas`` independent engine worlds.

    Each dispatch round assigns every pending request to the replica the
    router expects to finish it first, runs one engine segment per loaded
    replica (arrivals shifted into segment-local time), and folds the
    outcomes back into global time. Crashed segments re-dispatch their
    requests to survivors; slow completions are hedged or timed out per
    the config. The loop terminates because every round either resolves a
    request or consumes one of its ``retry_max`` attempts.
    """
    serve = cfg.serve
    backoff = cfg.backoff_policy()
    router = ReplicaRouter(cfg.replicas, backoff=backoff)
    session = RunContext(trace=serve.trace, observe=serve.observe)

    def replica_faults(r: int) -> FaultModel | None:
        """Replica ``r``'s persistent crash model (its own seeded stream)."""
        if cfg.mtbf is None:
            return None
        return FaultModel(
            seed=derive_seed(serve.seed, "fleet-replica", r), mtbf=cfg.mtbf
        )

    faults = [replica_faults(r) for r in range(cfg.replicas)]

    flights = [
        _Flight(template=req, ready=req.arrival) for req in build_requests(serve)
    ]
    by_rid = {f.rid: f for f in flights}
    hedge_s = None if cfg.hedge_after_ms is None else cfg.hedge_after_ms / 1e3
    timeout_s = (
        None if cfg.request_timeout_ms is None else cfg.request_timeout_ms / 1e3
    )

    monitors = [
        SLOMonitor(obj, windows=default_burn_windows(cfg.slo_horizon_s))
        for obj in cfg.slos
    ]
    scaler = Autoscaler(cfg.autoscale) if cfg.autoscale is not None else None
    #: Global admission times per rid (fed by settle, read by span trees).
    admitted_g: dict[int, float] = {}

    ttft = LatencyStats("ttft")
    token_latency = LatencyStats("token")
    crashes = retries = hedges = hedge_wins = timeouts = 0
    scale_ups = scale_downs = 0
    fleet_clock = 0.0

    def run_segment(
        replica: int, group: list[_Flight], seg_t0: float
    ) -> tuple[Any | None, float]:
        """One engine world on ``replica``'s fault stream; returns
        ``(result, end_t)`` — result is None when the segment crashed."""
        nonlocal crashes, fleet_clock
        requests = [
            _fresh(f.template, max(0.0, f.ready - seg_t0))
            for f in sorted(group, key=lambda f: (f.ready, f.rid))
        ]
        session.record_event(
            "fleet_dispatch", t=seg_t0, replica=replica, requests=len(requests)
        )
        router.on_dispatch(replica, len(requests))
        try:
            result = run_serving(serve, network=network, requests=requests,
                                 faults=faults[replica])
        except ReproError as exc:
            crashes += 1
            partial_clocks = getattr(exc, "partial_clocks", None) or [0.0]
            crash_t = seg_t0 + max(partial_clocks)
            partial_context = getattr(exc, "partial_context", None)
            if partial_context is not None:
                session.absorb(partial_context, clock_offset=seg_t0)
            down_until = router.on_crash(replica, crash_t)
            session.record_event(
                "replica_crash",
                t=crash_t,
                replica=replica,
                failure=classify_failure(exc),
                rank=getattr(exc, "rank", None),
                requests=len(requests),
                down_until=down_until,
                **_crash_fields(exc),
            )
            session.metrics.counter(
                "fleet_crashes", failure=classify_failure(exc)
            ).inc()
            fleet_clock = max(fleet_clock, crash_t)
            return None, crash_t
        end_t = seg_t0 + result.simulated_time
        if result.context is not None:
            session.absorb(result.context, clock_offset=seg_t0)
        router.on_segment_done(replica, seg_t0, end_t, result.completed)
        fleet_clock = max(fleet_clock, end_t)
        return result, end_t

    def retry_or_evict(flight: _Flight, at: float, why: str) -> None:
        """Schedule a re-dispatch, or explicitly evict past the budget."""
        nonlocal retries
        flight.attempts += 1
        if flight.attempts > cfg.retry_max:
            flight.resolve(
                tier=flight.template.tier, state="evicted", reason="retries",
                replica=None, finish=at, generated=0, tokens=[],
            )
            session.record_event(
                "retries_exhausted", t=at, rid=flight.rid,
                attempts=flight.attempts,
            )
            session.metrics.counter("fleet_retries_exhausted").inc()
        else:
            retries += 1
            # A replica can crash before one of its requests even arrived;
            # re-dispatch never schedules ahead of the original arrival.
            flight.ready = max(at, flight.template.arrival)
            session.record_event(
                "redispatch", t=at, rid=flight.rid, attempt=flight.attempts,
                why=why,
            )
            session.metrics.counter("fleet_retries", why=why).inc()

    def settle(
        flight: _Flight,
        rec: dict,
        replica: int,
        seg_t0: float,
        admitted_local: float | None = None,
    ) -> None:
        """Fold one segment record into the flight's global outcome."""
        nonlocal timeouts
        dispatch_g = seg_t0 + rec["arrival"]
        if rec["state"] == "done":
            finish_g = seg_t0 + rec["finish"]
            service = rec["latency"]
            if timeout_s is not None and service > timeout_s:
                timeouts += 1
                session.record_event(
                    "timeout", t=dispatch_g + timeout_s, rid=flight.rid,
                    service=service,
                )
                session.metrics.counter("fleet_timeouts").inc()
                flight.history.append({
                    "kind": "timeout", "replica": replica,
                    "t_start": dispatch_g, "t_end": dispatch_g + timeout_s,
                })
                retry_or_evict(flight, dispatch_g + timeout_s, why="timeout")
                return
            first_token_g = (
                None if rec["ttft"] is None
                else dispatch_g + rec["ttft"]
            )
            flight.resolve(
                tier=rec["tier"], state="done", reason=None, replica=replica,
                dispatch=dispatch_g, first_token=first_token_g, finish=finish_g,
                generated=rec["generated"], tokens=rec["tokens"],
                ttft=(
                    None if first_token_g is None
                    else first_token_g - flight.template.arrival
                ),
                latency=finish_g - flight.template.arrival,
            )
        else:
            # Explicit in-segment eviction (slo/cache) or admission shed —
            # a terminal outcome with its reason preserved.
            flight.resolve(
                tier=rec["tier"], state=rec["state"], reason=rec["reason"],
                replica=replica,
                finish=None if rec["finish"] is None else seg_t0 + rec["finish"],
                generated=rec["generated"], tokens=rec["tokens"],
            )
        if admitted_local is not None and flight.outcome is not None:
            admitted_g[flight.rid] = seg_t0 + admitted_local

    def run_hedges(candidates: list[_Flight]) -> None:
        """Speculatively re-dispatch slow completions to second replicas."""
        nonlocal hedges, hedge_wins
        groups: dict[int, list[_Flight]] = {}
        for flight in candidates:
            alt = router.pick(
                flight.outcome["dispatch"] + hedge_s,
                exclude=(flight.outcome["replica"],),
            )
            if alt is None:
                continue
            flight.hedged = True
            flight.outcome["hedged"] = True
            groups.setdefault(alt.index, []).append(flight)
        for replica in sorted(groups):
            group = groups[replica]
            seg_t0 = max(
                router.states[replica].available_at,
                min(f.outcome["dispatch"] + hedge_s for f in group),
            )
            hedges += len(group)
            for flight in group:
                session.record_event(
                    "hedge", t=seg_t0, rid=flight.rid,
                    primary=flight.outcome["replica"], replica=replica,
                )
            session.metrics.counter("fleet_hedges").inc(len(group))
            saved_ready = {f.rid: f.ready for f in group}
            for flight in group:
                flight.ready = flight.outcome["dispatch"] + hedge_s
            result, seg_end = run_segment(replica, group, seg_t0)
            for flight in group:
                flight.ready = saved_ready[flight.rid]
            if result is None:
                # Hedge replica crashed; primaries stand. The doomed
                # speculative attempts still show in the span trees.
                for flight in group:
                    flight.history.append({
                        "kind": "hedge", "replica": replica,
                        "t_start": max(
                            seg_t0, flight.outcome["dispatch"] + hedge_s
                        ),
                        "t_end": seg_end, "winner": False, "role": "hedge",
                        "crashed": True,
                    })
                continue
            for rec in result.requests:
                flight = by_rid[rec["rid"]]
                if rec["state"] != "done":
                    continue
                finish_g = seg_t0 + rec["finish"]
                dispatch_g = seg_t0 + rec["arrival"]
                if finish_g < flight.outcome["finish"]:
                    hedge_wins += 1
                    session.metrics.counter("fleet_hedge_wins").inc()
                    first_token_g = (
                        None if rec["ttft"] is None
                        else dispatch_g + rec["ttft"]
                    )
                    # The beaten primary becomes the off-path attempt.
                    flight.history.append({
                        "kind": "hedge",
                        "replica": flight.outcome["replica"],
                        "t_start": flight.outcome["dispatch"],
                        "t_end": flight.outcome["finish"],
                        "winner": False, "role": "primary",
                    })
                    flight.outcome.update(
                        replica=replica,
                        dispatch=dispatch_g,
                        first_token=first_token_g,
                        finish=finish_g,
                        ttft=(
                            None if first_token_g is None
                            else first_token_g - flight.template.arrival
                        ),
                        latency=finish_g - flight.template.arrival,
                    )
                    adm = result.admitted_at.get(flight.rid)
                    if adm is not None:
                        admitted_g[flight.rid] = seg_t0 + adm
                    # Explicit winner marker (the on-path prefill/decode
                    # spans carry the same interval).
                    flight.history.append({
                        "kind": "hedge", "replica": replica,
                        "t_start": dispatch_g, "t_end": finish_g,
                        "winner": True, "role": "hedge",
                    })
                else:
                    flight.history.append({
                        "kind": "hedge", "replica": replica,
                        "t_start": dispatch_g, "t_end": finish_g,
                        "winner": False, "role": "hedge",
                    })

    rounds = 0
    dispatch_clock = 0.0
    slo_clock = 0.0
    resolved_rids: set[int] = set()
    while any(f.outcome is None for f in flights):
        rounds += 1
        if rounds > cfg.max_rounds:
            raise CommunicatorError(
                f"fleet dispatch did not converge in {cfg.max_rounds} rounds"
            )
        pending = sorted(
            (f for f in flights if f.outcome is None),
            key=lambda f: (f.ready, f.rid),
        )
        if scaler is not None:
            # Windowed dispatch: assign only work ready inside the next
            # dispatch window, so scale decisions interleave with the
            # arrival process instead of round one swallowing the ramp.
            horizon = dispatch_clock + cfg.autoscale.dispatch_window_s
            batch = [f for f in pending if f.ready <= horizon]
            if not batch:
                dispatch_clock = min(f.ready for f in pending)
                continue
            dispatch_clock = horizon
            pending = batch
        assignment: dict[int, list[_Flight]] = {}
        for flight in pending:
            choice = router.pick(flight.ready)
            assignment.setdefault(choice.index, []).append(flight)
            # Count queued work immediately so the next pick balances.
            router.on_dispatch(choice.index, 1)
        round_done: list[_Flight] = []
        for replica in sorted(assignment):
            group = assignment[replica]
            state = router.states[replica]
            # on_dispatch above already queued the group; reset before the
            # segment re-counts it, so outstanding is not double-counted.
            state.outstanding = 0
            seg_t0 = state.available_at
            result, end_t = run_segment(replica, group, seg_t0)
            if result is None:
                for flight in group:
                    flight.history.append({
                        "kind": "crash", "replica": replica,
                        "t_start": max(seg_t0, flight.ready), "t_end": end_t,
                    })
                    retry_or_evict(flight, end_t, why="crash")
                continue
            for rec in result.requests:
                flight = by_rid[rec["rid"]]
                settle(flight, rec, replica, seg_t0,
                       admitted_local=result.admitted_at.get(rec["rid"]))
                if flight.outcome is not None and flight.outcome["state"] == "done":
                    round_done.append(flight)
            token_latency.extend(result.token_latency.samples)
        if hedge_s is not None:
            candidates = [
                f for f in round_done
                if not f.hedged
                and f.outcome["finish"] - f.outcome["dispatch"] > hedge_s
            ]
            if candidates:
                run_hedges(candidates)

        # ---- windowed signals + control decisions, once per round ---- #
        newly = sorted(
            (f for f in flights
             if f.outcome is not None and f.rid not in resolved_rids),
            key=lambda f: (_signal_time(f.outcome), f.rid),
        )
        for flight in newly:
            resolved_rids.add(flight.rid)
            out = flight.outcome
            t_sig = _signal_time(out)
            if out["state"] == "done" and out["ttft"] is not None:
                session.metrics.histogram(
                    "fleet_ttft_seconds", tier=out["tier"]
                ).observe(out["ttft"], t=t_sig)
                if scaler is not None:
                    scaler.observe_ttft(t_sig, out["ttft"], out["tier"])
                for mon in monitors:
                    mon.observe(t_sig, out["ttft"], tier=out["tier"])
            else:
                # Shed / evicted requests burn the error budget outright.
                for mon in monitors:
                    mon.observe(t_sig, float("inf"), tier=out["tier"])
            # Evaluate at the signal's own timestamp (monotone-clamped):
            # burn windows are narrow relative to a round, so waiting for
            # the round's end would inspect them after they drained.
            slo_clock = max(slo_clock, t_sig)
            for mon in monitors:
                mon.evaluate(slo_clock, session)
        router.emit(session.metrics, fleet_clock)
        slo_clock = max(slo_clock, fleet_clock)
        for mon in monitors:
            mon.evaluate(slo_clock, session)
        if scaler is not None:
            backlog = sum(1 for f in flights if f.outcome is None)
            decision = scaler.decide(fleet_clock, router.active_count, backlog)
            if decision["action"] == "up":
                state = router.add_replica(
                    free_at=fleet_clock + cfg.autoscale.spawn_delay_s
                )
                while len(faults) < len(router.states):
                    faults.append(replica_faults(len(faults)))
                scale_ups += 1
                session.record_event(
                    "scale_up", t=fleet_clock, replica=state.index,
                    reason=decision["reason"], ttft_p95=decision["ttft_p95"],
                    backlog=backlog, replicas=router.active_count,
                )
                session.spans.instant(
                    f"scale_up:{state.index}", fleet_clock, kind="autoscale",
                    replica=state.index, reason=decision["reason"],
                    replicas=router.active_count,
                )
                session.metrics.counter("fleet_scale_up").inc(t=fleet_clock)
            elif decision["action"] == "down":
                cand = router.drain_candidate()
                if (
                    cand is not None
                    and router.active_count > cfg.autoscale.min_replicas
                ):
                    router.drain(cand.index)
                    scale_downs += 1
                    session.record_event(
                        "scale_down", t=fleet_clock, replica=cand.index,
                        reason=decision["reason"],
                        ttft_p95=decision["ttft_p95"], backlog=backlog,
                        replicas=router.active_count,
                    )
                    session.spans.instant(
                        f"scale_down:{cand.index}", fleet_clock,
                        kind="autoscale", replica=cand.index,
                        reason=decision["reason"],
                        replicas=router.active_count,
                    )
                    session.metrics.counter("fleet_scale_down").inc(
                        t=fleet_clock
                    )

    _emit_request_spans(session, flights, admitted_g)

    records = sorted((f.outcome for f in flights), key=lambda r: r["rid"])
    completed = evicted = shed = decode_tokens = 0
    shed_by_tier: dict[int, int] = {}
    for rec in records:
        if rec["state"] == "done":
            completed += 1
            decode_tokens += rec["generated"]
            if rec["ttft"] is not None:
                ttft.add(rec["ttft"])
        elif rec["state"] == "shed":
            shed += 1
            shed_by_tier[rec["tier"]] = shed_by_tier.get(rec["tier"], 0) + 1
        else:
            evicted += 1
            decode_tokens += rec["generated"]
        if rec["finish"] is not None:
            fleet_clock = max(fleet_clock, rec["finish"])

    registry = session.metrics
    registry.counter("fleet_completed").inc(completed)
    registry.counter("fleet_evicted").inc(evicted)
    for tier in sorted(shed_by_tier):
        registry.counter("fleet_shed", tier=tier).inc(shed_by_tier[tier])
    registry.counter("fleet_decode_tokens").inc(decode_tokens)
    goodput = decode_tokens / fleet_clock if fleet_clock > 0 else 0.0
    registry.gauge("fleet_goodput_tok_s").set(goodput)
    registry.gauge("fleet_makespan_seconds").set(fleet_clock)
    for mon in monitors:
        # Close out any alert still firing at end of run.
        mon.evaluate(fleet_clock, session)

    return FleetResult(
        config=cfg,
        completed=completed,
        evicted=evicted,
        shed=shed,
        decode_tokens=decode_tokens,
        simulated_time=fleet_clock,
        ttft=ttft,
        token_latency=token_latency,
        requests=records,
        crashes=crashes,
        retries=retries,
        hedges=hedges,
        hedge_wins=hedge_wins,
        timeouts=timeouts,
        shed_by_tier=shed_by_tier,
        replica_stats=[
            {
                "replica": s.index,
                "completed": s.completed,
                "crashes": s.crashes,
                "busy_time": s.busy_time,
                "free_at": s.free_at,
                "draining": s.draining,
            }
            for s in router.states
        ],
        context=session,
        scale_ups=scale_ups,
        scale_downs=scale_downs,
        replicas_final=router.active_count,
        slo=monitors,
        meta={
            "replicas": cfg.replicas,
            "ep_size": serve.ep_size,
            "rounds": rounds,
        },
    )
