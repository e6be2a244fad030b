"""The fleet loop, one step at a time — with no rank thread anywhere.

``serve/fleet.py::_Fleet`` holds a fleet run's state and takes the engine
call as a constructor argument, so these tests hand it a *scripted*
engine (each segment either returns a hand-built ``ServeResult`` or
raises a crash with a chosen virtual time) and call the steps directly:
retry budget, timeout, hedge winner, autoscaling and the span rules for
requests that did not complete are policies, and a policy should be
testable without simulating a machine.
"""

import pytest

from repro.errors import FaultInjected
from repro.models import tiny_config
from repro.obs import SLOObjective, span_coverage
from repro.serve import AutoscalerConfig, FleetConfig, ServeConfig
from repro.serve.engine import ServeResult, emit_request_spans
from repro.serve.fleet import _Fleet
from repro.simmpi import RunContext
from repro.train.metrics import LatencyStats
from repro.utils.seeding import derive_seed


@pytest.fixture(autouse=True)
def no_rank_threads(monkeypatch):
    """Reaching the SPMD engine from a step test is the failure."""
    def boom(*args, **kwargs):
        raise AssertionError("a fleet step test launched rank threads")
    monkeypatch.setattr("repro.serve.engine.run_spmd", boom)


def served(service=1.0, prefill=0.25, queue=0.0, **overrides):
    """Script one healthy segment: every request waits ``queue``, decodes
    its first token ``prefill`` later and finishes ``service`` after its
    (segment-local) arrival. ``overrides`` maps rid -> ``(state, reason,
    admitted?)`` for requests that are shed / evicted instead."""
    fates = {int(k.removeprefix("rid")): v for k, v in overrides.items()}

    def segment(cfg, requests):
        admitted = {}
        for req in requests:
            state, reason, was_admitted = fates.get(req.rid, ("done", None, True))
            if was_admitted:
                admitted[req.rid] = req.t_admitted = req.arrival + queue
            if state == "done":
                req.t_first_token = req.t_admitted + prefill
                req.generated = [7] * req.max_new_tokens
            req.state, req.reason = state, reason
            req.t_finished = req.arrival + service
        records = [req.record() for req in requests]
        return ServeResult(
            config=cfg,
            completed=sum(r["state"] == "done" for r in records),
            evicted=0, decode_tokens=0,
            simulated_time=max(r["finish"] for r in records),
            ttft=LatencyStats("ttft"), token_latency=LatencyStats("token"),
            requests=sorted(records, key=lambda r: r["rid"]),
            admitted_at=admitted,
        )
    return segment


def crash(at, rank=1):
    """Script one segment that dies ``at`` virtual seconds in."""
    def segment(cfg, requests):
        exc = FaultInjected("scripted", rank=rank)
        exc.partial_clocks = [at / 2, at]
        raise exc
    return segment


class Script:
    """The engine call of a scripted fleet: plays its segments in order."""

    def __init__(self, *segments):
        self.segments = list(segments)
        self.calls = []

    def __call__(self, cfg, network=None, requests=None, faults=None):
        self.calls.append({"rids": [r.rid for r in requests],
                           "arrivals": [r.arrival for r in requests],
                           "faults": faults})
        return self.segments.pop(0)(cfg, requests)


def make_fleet(*segments, requests=1, arrival_rate=None, **fleet_kw):
    serve = ServeConfig(model=tiny_config(), ep_size=2, num_requests=requests,
                        arrival_rate=arrival_rate, max_new_tokens=4,
                        observe=True)
    return _Fleet(FleetConfig(serve=serve, **fleet_kw), Script(*segments))


def events(fleet, kind):
    return [e for e in fleet.session.events if e["kind"] == kind]


def tree(spans, rid):
    """``(root, [(name, kind, t_start, t_end, attrs)...])`` of one request."""
    root = next(s for s in spans.roots() if s.name == f"request:{rid}")
    return root, [(s.name, s.kind, s.t_start, s.t_end, s.attrs)
                  for s in spans.children(root)]


# --------------------------------------------------------------------- #
# Crash recovery: retry, then evict past the budget
# --------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_crash_with_attempts_left_redispatches(self):
        # The crash lands after the first arrival and before the others.
        fleet = make_fleet(crash(at=6.0), requests=3, arrival_rate=0.5)
        arrivals = [f.template.arrival for f in fleet.flights]
        assert arrivals[0] < 6.0 < arrivals[1] <= arrivals[2]

        assert fleet.serve_group(0, fleet.flights) == []

        assert fleet.counts["crashes"] == 1 and fleet.counts["retries"] == 3
        assert fleet.clock == 6.0
        (crashed,) = events(fleet, "replica_crash")
        assert crashed["t"] == 6.0 and crashed["failure"] == "fault"
        assert crashed["rank"] == 1 and crashed["requests"] == 3
        assert fleet.router.states[0].down_until == crashed["down_until"] > 6.0
        for flight in fleet.flights:
            assert flight.outcome is None and flight.attempts == 1
            # Never re-dispatched ahead of the original arrival.
            assert flight.ready == max(6.0, flight.template.arrival)
            (redispatch,) = [e for e in events(fleet, "redispatch")
                             if e["rid"] == flight.rid]
            assert redispatch["t"] == 6.0 and redispatch["why"] == "crash"
            (attempt,) = flight.history
            assert attempt["kind"] == "crash" and attempt["t_end"] == 6.0

    def test_crash_at_retry_max_evicts_exactly_once(self):
        fleet = make_fleet(crash(at=1.0), crash(at=2.5), retry_max=1)
        (flight,) = fleet.flights
        fleet.serve_group(0, [flight])
        assert flight.outcome is None
        fleet.serve_group(1, [flight])

        out = flight.outcome
        assert (out["state"], out["reason"]) == ("evicted", "retries")
        assert out["attempts"] == 2 and out["replica"] is None
        assert out["generated"] == 0 and out["finish"] == 2.5
        assert len(events(fleet, "retries_exhausted")) == 1
        assert len(events(fleet, "redispatch")) == 1
        assert fleet.counts["retries"] == 1 and fleet.counts["crashes"] == 2
        assert fleet.unresolved == []
        result = fleet.result()
        assert result.evicted == 1 and result.crashes == 2
        # Two retry attempts cover the whole root: nothing was admitted.
        root, kids = tree(result.context.spans, 0)
        assert [k[1] for k in kids] == ["retry", "retry"]
        assert span_coverage(result.context.spans, root)["gap_seconds"] == 0.0


# --------------------------------------------------------------------- #
# Timeout: a slow completion is thrown away and retried
# --------------------------------------------------------------------- #


class TestTimeout:
    def test_slow_service_times_out_then_retries(self):
        fleet = make_fleet(served(service=1.0), served(service=0.25),
                           request_timeout_ms=500.0)
        (flight,) = fleet.flights
        assert fleet.serve_group(0, [flight]) == []

        (timeout,) = events(fleet, "timeout")
        assert timeout["t"] == 0.5 and timeout["service"] == 1.0
        assert fleet.counts["timeouts"] == 1 and fleet.counts["retries"] == 1
        assert flight.outcome is None and flight.ready == 0.5
        assert flight.admitted is None, "the discarded attempt's admission"
        (redispatch,) = events(fleet, "redispatch")
        assert redispatch["why"] == "timeout"

        assert fleet.serve_group(1, [flight]) == [flight]
        out = flight.outcome
        assert out["state"] == "done" and out["attempts"] == 1
        assert out["dispatch"] == 0.5 and out["finish"] == 0.75
        assert out["latency"] == 0.75  # from the original arrival at t=0
        root, kids = tree(fleet.result().context.spans, 0)
        assert [(k[0], k[2], k[3]) for k in kids] == [
            ("attempt", 0.0, 0.5), ("admission", 0.5, 0.5),
            ("prefill", 0.5, 0.75), ("decode", 0.75, 0.75),
        ]
        assert kids[0][4]["why"] == "timeout"


# --------------------------------------------------------------------- #
# Hedging
# --------------------------------------------------------------------- #


class TestHedge:
    def test_earlier_hedge_wins_and_primary_goes_off_path(self):
        fleet = make_fleet(served(service=1.0), served(service=0.25),
                           hedge_after_ms=100.0)
        (flight,) = fleet.flights
        done = fleet.serve_group(0, [flight])
        fleet.hedge(done)

        # The hedge was handed its ready time, not a rewritten flight.ready.
        assert fleet.run_engine.calls[1]["arrivals"] == [0.0]
        assert flight.ready == 0.0
        (hedge,) = events(fleet, "hedge")
        assert (hedge["t"], hedge["primary"], hedge["replica"]) == (0.1, 0, 1)
        assert fleet.counts["hedges"] == fleet.counts["hedge_wins"] == 1
        out = flight.outcome
        assert out["replica"] == 1 and out["hedged"] is True
        assert out["dispatch"] == 0.1 and out["finish"] == 0.35

        result = fleet.result()
        spans = result.context.spans
        root, kids = tree(spans, 0)
        hedges = {k[4]["role"]: k for k in kids if k[1] == "hedge"}
        assert hedges["primary"][2:4] == (0.0, 1.0)
        assert hedges["primary"][4]["winner"] is False
        assert hedges["primary"][4]["replica"] == 0
        assert hedges["hedge"][4]["winner"] is True
        assert not any(s.on_path for s in spans.find(kind="hedge"))
        assert root.t_end == 0.35 and root.attrs["hedged"] is True
        assert span_coverage(spans, root)["gap_seconds"] == 0.0

    def test_later_hedge_loses(self):
        fleet = make_fleet(served(service=1.0), served(service=2.0),
                           hedge_after_ms=100.0)
        fleet.hedge(fleet.serve_group(0, fleet.flights))
        (flight,) = fleet.flights
        assert flight.outcome["replica"] == 0 and flight.outcome["finish"] == 1.0
        assert fleet.counts["hedges"] == 1 and fleet.counts["hedge_wins"] == 0
        (attempt,) = flight.history
        assert (attempt["winner"], attempt["role"]) == (False, "hedge")

    def test_crashed_hedge_leaves_the_primary_untouched(self):
        fleet = make_fleet(served(service=1.0), crash(at=0.5),
                           hedge_after_ms=100.0)
        (flight,) = fleet.flights
        done = fleet.serve_group(0, [flight])
        primary = dict(flight.outcome)
        fleet.hedge(done)

        assert flight.outcome == {**primary, "hedged": True}
        assert fleet.counts["crashes"] == 1 and fleet.counts["hedge_wins"] == 0
        assert fleet.counts["retries"] == 0 and not events(fleet, "redispatch")
        (attempt,) = flight.history
        assert attempt["kind"] == "hedge" and attempt["winner"] is False
        assert (attempt["t_start"], attempt["t_end"]) == (0.1, 0.1 + 0.5)

    def test_fast_completions_are_not_hedged(self):
        fleet = make_fleet(served(service=0.05), hedge_after_ms=100.0)
        fleet.hedge(fleet.serve_group(0, fleet.flights))
        assert fleet.counts["hedges"] == 0 and len(fleet.run_engine.calls) == 1


# --------------------------------------------------------------------- #
# Dispatch windows, monitors, autoscaling
# --------------------------------------------------------------------- #


def _elastic(**kw):
    policy = dict(min_replicas=1, max_replicas=3, queue_high=1.0,
                  queue_low=0.5, cooldown_s=0.0, spawn_delay_s=2.0,
                  dispatch_window_s=0.5)
    policy.update(kw)
    return AutoscalerConfig(**policy)


class TestControlSteps:
    def test_windowed_dispatch_skips_an_empty_window(self):
        fleet = make_fleet(requests=3, arrival_rate=0.5, replicas=1,
                           autoscale=_elastic())
        first = min(f.ready for f in fleet.flights)
        assert first > 0.5
        assert fleet.dispatch_round() == {}
        assert fleet.dispatch_clock == first and fleet.rounds == 1
        assignment = fleet.dispatch_round()
        assert [f.rid for f in assignment[0]] == [0]
        assert fleet.dispatch_clock == first + 0.5

    def test_fixed_fleet_dispatches_everything_at_once(self):
        fleet = make_fleet(requests=4, replicas=2)
        assignment = fleet.dispatch_round()
        assert sorted(f.rid for g in assignment.values() for f in g) == [0, 1, 2, 3]
        assert sorted(assignment) == [0, 1], "the router balances queued work"

    def test_scale_up_gives_the_new_replica_its_own_fault_stream(self):
        fleet = make_fleet(requests=4, replicas=1, mtbf=1.0,
                           autoscale=_elastic())
        assert len(fleet.faults) == 1
        fleet.clock = 1.0
        fleet.autoscale()  # backlog 4 on 1 replica > queue_high

        assert fleet.counts["scale_ups"] == 1
        assert fleet.router.active_count == 2 and len(fleet.faults) == 2
        seed = fleet.cfg.serve.seed
        for r, model in enumerate(fleet.faults):
            assert model.seed == derive_seed(seed, "fleet-replica", r)
        (up,) = events(fleet, "scale_up")
        assert (up["t"], up["replica"], up["backlog"], up["replicas"]) == (1.0, 1, 4, 2)
        assert fleet.router.states[1].free_at == 1.0 + 2.0  # spawn delay
        (mark,) = fleet.session.spans.find(kind="autoscale")
        assert mark.name == "scale_up:1" and mark.t_start == 1.0

    def test_scale_down_drains_when_idle(self):
        fleet = make_fleet(served(service=1.0), requests=2, replicas=2,
                           autoscale=_elastic())
        fleet.serve_group(0, fleet.flights)
        fleet.autoscale()  # nothing unresolved, no TTFT samples
        assert fleet.counts["scale_downs"] == 1
        assert fleet.router.active_count == 1
        (down,) = events(fleet, "scale_down")
        assert down["backlog"] == 0 and down["replicas"] == 1

    def test_monitors_see_each_outcome_exactly_once(self):
        slo = SLOObjective(name="ttft", threshold_s=0.1, metric="ttft")
        fleet = make_fleet(served(service=1.0, rid1=("shed", "shed", False)),
                           requests=2, slos=(slo,))
        fleet.serve_group(0, fleet.flights)
        fleet.feed_monitors()
        (monitor,) = fleet.monitors
        # One slow first token (0.25 s > 0.1 s) and one shed: both bad.
        assert monitor.total == 2 and monitor.summary()["bad"] == 2
        assert fleet.signalled == {0, 1} and fleet.slo_clock == 1.0
        fleet.feed_monitors()
        assert monitor.total == 2
        ttft = fleet.session.metrics.histogram("fleet_ttft_seconds", tier=0)
        assert ttft.count == 1


# --------------------------------------------------------------------- #
# One span rule for requests that did not complete
# --------------------------------------------------------------------- #


def _outcomes(service=1.0, queue=0.0):
    """rid 0 completes, rid 1 is shed, rid 2 is admitted then evicted."""
    return served(service=service, queue=queue,
                  rid1=("shed", "shed", False), rid2=("evicted", "slo", True))


def _fleet_trees(queue):
    fleet = make_fleet(_outcomes(queue=queue), requests=3)
    fleet.serve_group(0, fleet.flights)
    result = fleet.result()
    assert (result.completed, result.shed, result.evicted) == (1, 1, 1)
    assert result.shed_by_tier == {0: 1}
    return result.context.spans


def _engine_trees(queue):
    fleet = make_fleet(requests=3)
    requests = [f.template for f in fleet.flights]
    result = _outcomes(queue=queue)(fleet.cfg.serve, requests)
    result.context = RunContext(observe=True)
    emit_request_spans(result)
    return result.context.spans


@pytest.mark.parametrize("trees", [_fleet_trees, _engine_trees])
class TestNonCompletedSpans:
    def test_shed_request_is_one_queue_span_with_its_reason(self, trees):
        spans = trees(queue=0.0)
        root, kids = tree(spans, 1)
        assert root.attrs["state"] == "shed" and root.t_end == 1.0
        ((name, kind, t0, t1, attrs),) = kids
        assert (name, kind, t0, t1) == ("queue", "queue", 0.0, 1.0)
        assert attrs["reason"] == "shed"
        assert span_coverage(spans, root)["gap_seconds"] == 0.0

    def test_admitted_on_arrival_then_evicted_is_service_not_queue(self, trees):
        # Admission at exactly the arrival: the parent commit's fleet drew
        # this whole service interval as a ``queue`` span.
        spans = trees(queue=0.0)
        root, kids = tree(spans, 2)
        assert [(k[0], k[1], k[2], k[3]) for k in kids] == [
            ("admission", "admission", 0.0, 0.0),
            ("service", "decode", 0.0, 1.0),
        ]
        assert kids[1][4]["reason"] == "slo"
        assert span_coverage(spans, root)["gap_seconds"] == 0.0

    def test_queued_then_admitted_then_evicted(self, trees):
        spans = trees(queue=0.25)
        root, kids = tree(spans, 2)
        assert [(k[0], k[2], k[3]) for k in kids] == [
            ("queue", 0.0, 0.25), ("admission", 0.25, 0.25),
            ("service", 0.25, 1.0),
        ]
        assert span_coverage(spans, root)["gap_seconds"] == 0.0


def test_both_emitters_draw_the_same_trees():
    """Names, kinds and intervals agree for every outcome; the fleet only
    adds attributes (``attempts``/``replica``/``hedged``)."""
    def shape(spans):
        return [(s.name, s.kind, s.t_start, s.t_end, s.parent_id)
                for s in spans]
    fleet, engine = _fleet_trees(0.25), _engine_trees(0.25)
    assert shape(fleet) == shape(engine)
    for f, e in zip(fleet, engine):
        extra = set(f.attrs) - set(e.attrs)
        assert extra <= {"attempts", "replica", "hedged"}
        assert {k: f.attrs[k] for k in e.attrs} == e.attrs
