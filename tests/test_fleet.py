"""Fault-tolerant serving fleet: router, retries, hedging, degradation.

The load-bearing guarantees:

* a fleet of one with faults disabled is *bitwise* the plain serving
  engine — same tokens, same traffic, same virtual makespan;
* under injected crashes every admitted request either completes with
  exactly the tokens an uncrashed run produces (decode is a pure
  function of the prompt, so re-prefill on a survivor is lossless) or is
  *explicitly* evicted/shed with a reason — never silently lost;
* the crashed-replica backoff schedule is the same capped-exponential
  policy the elastic training supervisor waits between relaunches;
* admission control sheds only sheddable tiers and KV-budget pressure
  degrades gracefully (lowest-priority slot evicted, run survives).
"""

import gc
from collections import Counter

import pytest

from repro.errors import ConfigError, FaultInjected, ReproError
from repro.models import tiny_config
from repro.parallel import TrainingRunConfig
from repro.resilience import BackoffPolicy, ElasticRunConfig
from repro.serve import (
    FleetConfig,
    ReplicaRouter,
    ServeConfig,
    run_fleet_serving,
    run_serving,
)
from repro.serve.engine import _run_serving
from repro.simmpi import FaultPlan

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def cfg():
    return tiny_config()


def _serve_cfg(cfg, **kw):
    base = dict(model=cfg, ep_size=2, num_requests=6, prompt_len=4,
                prompt_len_max=7, max_new_tokens=5, max_batch_size=3, seed=0)
    base.update(kw)
    return ServeConfig(**base)


def _tokens_by_rid(result):
    return {r["rid"]: tuple(r["tokens"]) for r in result.requests
            if r["state"] == "done"}


# --------------------------------------------------------------------- #
# BackoffPolicy: the shared retry schedule
# --------------------------------------------------------------------- #


class TestBackoffPolicy:
    def test_capped_exponential_schedule(self):
        policy = BackoffPolicy(base=2.0, cap=10.0)
        assert [policy.delay(n) for n in range(1, 6)] == [2.0, 4.0, 8.0, 10.0, 10.0]

    def test_supervisor_and_fleet_share_one_schedule(self):
        """The satellite guarantee: training supervisor retries and fleet
        replica backoff follow the *identical* schedule object."""
        sup = ElasticRunConfig(
            run=TrainingRunConfig(model=tiny_config(), world_size=2, ep_size=2,
                                  num_steps=1, seq_len=8),
            checkpoint_every=1, checkpoint_dir="/tmp/x",
            backoff_base=2.0, backoff_cap=10.0,
        ).backoff_policy()
        fleet = FleetConfig(
            serve=ServeConfig(model=tiny_config()),
            backoff_base=2.0, backoff_cap=10.0,
        ).backoff_policy()
        assert sup == fleet

    def test_validation(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ConfigError):
            BackoffPolicy(cap=-1.0)
        with pytest.raises(ConfigError):
            BackoffPolicy().delay(0)


# --------------------------------------------------------------------- #
# Scripted mid-run kills on the virtual clock
# --------------------------------------------------------------------- #


class TestKillRankAtTime:
    def test_fires_only_past_the_virtual_time(self):
        plan = FaultPlan().kill_rank_at(1, at_time=5.0)
        assert not plan.should_kill(1, op_index=100, clock=4.999)
        assert plan.should_kill(1, op_index=0, clock=5.0)
        assert not plan.should_kill(0, op_index=0, clock=99.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            FaultPlan().kill_rank_at(0, at_time=-1.0)

    def test_mid_decode_crash_surfaces_with_partial_state(self, cfg):
        """A rank killed mid-decode raises FaultInjected with partial
        clocks/context attached — the contract the fleet redispatch
        relies on."""
        scfg = _serve_cfg(cfg, observe=True)
        healthy = run_serving(scfg)
        t_kill = healthy.simulated_time / 2
        with pytest.raises(FaultInjected) as info:
            _run_serving(scfg, requests=None, faults=FaultPlan().kill_rank_at(0, t_kill),
                         pool=None)
        exc = info.value
        assert exc.partial_clocks and max(exc.partial_clocks) >= t_kill
        assert exc.partial_context is not None
        assert exc.flight_dump is not None and exc.flight_dump["ranks"]


# --------------------------------------------------------------------- #
# ReplicaRouter policy
# --------------------------------------------------------------------- #


class TestReplicaRouter:
    def test_round_robin_before_any_service_history(self):
        router = ReplicaRouter(3)
        picks = []
        for _ in range(6):
            s = router.pick(0.0)
            picks.append(s.index)
            router.on_dispatch(s.index)
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_crash_gates_dispatch_until_backoff_expires(self):
        router = ReplicaRouter(2, backoff=BackoffPolicy(base=4.0, cap=100.0))
        down = router.on_crash(0, crash_t=1.0)
        assert down == 5.0
        assert not router.states[0].healthy(4.9)
        assert router.states[0].healthy(5.0)
        # A ready-now request routes to the healthy replica.
        assert router.pick(1.0).index == 1
        # Consecutive failures escalate: 4, then 8.
        assert router.on_crash(0, crash_t=6.0) == 14.0
        router.on_segment_done(0, 14.0, 15.0, served=1)
        assert router.states[0].consecutive_failures == 0

    def test_learned_service_time_balances_queues(self):
        router = ReplicaRouter(2)
        router.on_segment_done(0, 0.0, 10.0, served=10)  # 1 s/request
        assert router.mean_service == 1.0
        router.on_dispatch(0, 3)
        # Replica 1 idles at t=10 < replica 0's 3-deep queue estimate.
        router.states[1].free_at = 10.0
        assert router.pick(0.0).index == 1

    def test_exclusion_for_hedges(self):
        router = ReplicaRouter(2)
        assert router.pick(0.0, exclude=(0,)).index == 1
        assert router.pick(0.0, exclude=(0, 1)) is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReplicaRouter(0)


# --------------------------------------------------------------------- #
# Fleet-of-one bitwise regression vs the plain engine
# --------------------------------------------------------------------- #


class TestFleetBaselineEquivalence:
    def test_single_replica_no_faults_is_the_plain_engine(self, cfg):
        scfg = _serve_cfg(cfg, arrival_rate=200.0, observe=True)
        base = run_serving(scfg)
        fleet = run_fleet_serving(FleetConfig(serve=scfg, replicas=1))
        assert _tokens_by_rid(fleet) == _tokens_by_rid(base)
        assert fleet.completed == base.completed
        assert fleet.evicted == base.evicted
        assert fleet.shed == base.shed
        assert fleet.decode_tokens == base.decode_tokens
        assert fleet.simulated_time == base.simulated_time
        # Byte-identical traffic: the fleet path added zero communication.
        assert fleet.context.stats.summary() == base.context.stats.summary()

    def test_fleet_ttft_matches_engine_ttft(self, cfg):
        scfg = _serve_cfg(cfg, arrival_rate=200.0)
        base = run_serving(scfg)
        fleet = run_fleet_serving(FleetConfig(serve=scfg, replicas=1))
        # The fleet aggregates per rid, the engine per rank: same samples,
        # possibly different insertion order.
        assert sorted(fleet.ttft.samples) == pytest.approx(
            sorted(base.ttft.samples)
        )
        assert sorted(fleet.token_latency.samples) == pytest.approx(
            sorted(base.token_latency.samples)
        )


# --------------------------------------------------------------------- #
# Crash recovery: no request is ever silently lost
# --------------------------------------------------------------------- #


class TestFleetCrashRecovery:
    def test_seeded_crash_sweep_loses_nothing(self, cfg):
        """Across seeds and fault rates: every request reaches a terminal
        state, and completed tokens equal the uncrashed reference."""
        for seed in (0, 1):
            scfg = _serve_cfg(cfg, seed=seed, arrival_rate=500.0)
            reference = _tokens_by_rid(run_serving(scfg))
            for mtbf in (0.004, 0.02):
                fleet = run_fleet_serving(FleetConfig(
                    serve=scfg, replicas=2, mtbf=mtbf,
                    retry_max=4, backoff_base=0.05, backoff_cap=0.4,
                ))
                states = {r["rid"]: r["state"] for r in fleet.requests}
                assert sorted(states) == list(range(scfg.num_requests))
                assert all(s in ("done", "evicted", "shed")
                           for s in states.values())
                for rid, tokens in _tokens_by_rid(fleet).items():
                    assert tokens == reference[rid], (seed, mtbf, rid)
                evicted = [r for r in fleet.requests
                           if r["state"] == "evicted"]
                assert all(r["reason"] for r in evicted)

    def test_crash_redispatches_to_survivor_and_completes(self, cfg):
        scfg = _serve_cfg(cfg, arrival_rate=200.0, observe=True)
        reference = _tokens_by_rid(run_serving(scfg))
        fleet = run_fleet_serving(FleetConfig(
            serve=scfg, replicas=2, mtbf=0.005,
            backoff_base=0.05, backoff_cap=0.4,
        ))
        assert fleet.crashes > 0 and fleet.retries > 0
        assert _tokens_by_rid(fleet) == {
            rid: reference[rid] for rid in _tokens_by_rid(fleet)
        }
        kinds = {e["kind"] for e in fleet.context.events}
        assert {"fleet_dispatch", "replica_crash", "redispatch"} <= kinds
        crash = next(e for e in fleet.context.events
                     if e["kind"] == "replica_crash")
        assert crash["down_until"] > crash["t"]
        assert "flight_events" in crash

    def test_crashing_call_is_freed_by_reference_counting(self, cfg):
        """Neither the rank models of a fleet call nor its crashed ranks'
        tracebacks wait for the cyclic collector: with it off, collecting
        afterwards finds no ``Parameter`` and no traceback in a cycle."""
        scfg = _serve_cfg(cfg, arrival_rate=200.0)
        gc.collect()
        debug = gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            crashes = run_fleet_serving(FleetConfig(
                serve=scfg, replicas=2, mtbf=0.005,
                backoff_base=0.05, backoff_cap=0.4,
            )).crashes
            gc.collect()
            left = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.garbage.clear()
            gc.set_debug(debug)
            gc.enable()
        assert crashes > 0
        assert left["Parameter"] == 0 and left["traceback"] == 0, left.most_common(8)

    def test_retry_budget_exhaustion_is_explicit(self, cfg):
        """A fleet whose only replica dies instantly every launch evicts
        everything with reason='retries' instead of looping or losing."""
        scfg = _serve_cfg(cfg, num_requests=4)
        fleet = run_fleet_serving(FleetConfig(
            serve=scfg, replicas=1, mtbf=1e-9, retry_max=2,
            backoff_base=0.01, backoff_cap=0.05,
        ))
        assert fleet.completed == 0
        assert all(r["state"] == "evicted" and r["reason"] == "retries"
                   for r in fleet.requests)
        assert all(r["attempts"] == 3 for r in fleet.requests)

    def test_two_replicas_beat_one_on_goodput(self, cfg):
        # Capacity-limited regime (all arrive at t=0) with an MTBF near
        # the healthy makespan, so the single replica pays crash + backoff
        # + full redispatch while the pair splits the work and recovers
        # on the survivor.
        scfg = _serve_cfg(cfg, num_requests=20)
        kw = dict(mtbf=3e-4, backoff_base=2e-4, backoff_cap=2e-3,
                  retry_max=4)
        one = run_fleet_serving(FleetConfig(serve=scfg, replicas=1, **kw))
        two = run_fleet_serving(FleetConfig(serve=scfg, replicas=2, **kw))
        assert one.crashes > 0
        assert two.goodput > one.goodput


# --------------------------------------------------------------------- #
# Hedging and timeouts
# --------------------------------------------------------------------- #


class TestHedgingAndTimeouts:
    def test_hedge_fires_and_never_worsens_latency(self, cfg):
        scfg = _serve_cfg(cfg, arrival_rate=200.0, observe=True)
        plain = run_fleet_serving(FleetConfig(serve=scfg, replicas=2))
        hedged = run_fleet_serving(FleetConfig(
            serve=scfg, replicas=2, hedge_after_ms=1e-4,
        ))
        assert hedged.hedges > 0
        assert hedged.completed == plain.completed
        assert _tokens_by_rid(hedged) == _tokens_by_rid(plain)
        plain_fin = {r["rid"]: r["finish"] for r in plain.requests
                     if r["state"] == "done"}
        for rec in hedged.requests:
            if rec["state"] == "done":
                assert rec["finish"] <= plain_fin[rec["rid"]] + 1e-12
        assert any(e["kind"] == "hedge" for e in hedged.context.events)

    def test_impossible_timeout_exhausts_retries_explicitly(self, cfg):
        scfg = _serve_cfg(cfg, num_requests=4)
        fleet = run_fleet_serving(FleetConfig(
            serve=scfg, replicas=2, request_timeout_ms=1e-9, retry_max=1,
        ))
        assert fleet.timeouts > 0
        assert fleet.completed == 0
        assert all(r["reason"] == "retries" for r in fleet.requests)


# --------------------------------------------------------------------- #
# Admission control: tiered shedding + KV-budget degradation
# --------------------------------------------------------------------- #


class TestGracefulDegradation:
    def test_shedding_rejects_only_high_tiers(self, cfg):
        scfg = _serve_cfg(
            cfg, num_requests=24, max_batch_size=2, num_tiers=2,
            shed_tier=1, queue_depth=3, observe=True,
        )
        result = run_serving(scfg)
        shed = [r for r in result.requests if r["state"] == "shed"]
        assert result.shed == len(shed) > 0
        assert all(r["tier"] == 1 for r in shed)
        assert all(r["reason"] == "shed" for r in shed)
        assert result.completed + result.evicted + result.shed == 24
        assert any(e["kind"] == "shed" for e in result.context.events)

    def test_tiering_uses_a_dedicated_stream(self, cfg):
        """Adding tiers must not perturb prompts/arrivals (bitwise)."""
        base = run_serving(_serve_cfg(cfg))
        tiered = run_serving(_serve_cfg(cfg, num_tiers=2))
        base_prompts = {r["rid"]: r["prompt_len"] for r in base.requests}
        tiered_prompts = {r["rid"]: r["prompt_len"] for r in tiered.requests}
        assert base_prompts == tiered_prompts
        assert _tokens_by_rid(base) == _tokens_by_rid(tiered)

    def test_kv_budget_pressure_evicts_gracefully(self, cfg):
        """An over-committed cache evicts the lowest-priority slot and
        keeps serving — no CacheOverflow escapes the run."""
        budget = (7 + 5) + 3  # one full request + a little headroom
        scfg = _serve_cfg(
            cfg, num_requests=8, num_tiers=2, kv_token_budget=budget,
            observe=True,
        )
        result = run_serving(scfg)
        cache_evicted = [r for r in result.requests
                         if r["state"] == "evicted" and r["reason"] == "cache"]
        assert cache_evicted
        assert result.completed > 0
        assert result.completed + result.evicted == 8
        assert any(e["kind"] == "cache_evict" for e in result.context.events)

    def test_fleet_of_crashing_replicas_still_sheds_by_tier(self, cfg):
        scfg = _serve_cfg(
            cfg, num_requests=16, max_batch_size=2, num_tiers=2,
            shed_tier=1, queue_depth=2,
        )
        fleet = run_fleet_serving(FleetConfig(
            serve=scfg, replicas=2, mtbf=0.01,
            backoff_base=0.05, backoff_cap=0.4,
        ))
        assert fleet.shed > 0
        assert set(fleet.shed_by_tier) == {1}
        assert fleet.completed + fleet.evicted + fleet.shed == 16


# --------------------------------------------------------------------- #
# Config validation + CLI plumbing
# --------------------------------------------------------------------- #


class TestFleetConfigAndCLI:
    def test_validation(self, cfg):
        scfg = _serve_cfg(cfg)
        with pytest.raises(ConfigError):
            FleetConfig(serve=scfg, replicas=0)
        with pytest.raises(ConfigError):
            FleetConfig(serve=scfg, mtbf=0.0)
        with pytest.raises(ConfigError):
            FleetConfig(serve=scfg, retry_max=-1)
        with pytest.raises(ConfigError):
            FleetConfig(serve=scfg, replicas=1, hedge_after_ms=5.0)
        with pytest.raises(ConfigError):
            FleetConfig(serve=scfg, request_timeout_ms=0.0)
        with pytest.raises(ConfigError):
            FleetConfig(serve=scfg, backoff_base=-1.0)

    def test_serve_config_validation(self, cfg):
        with pytest.raises(ConfigError):
            _serve_cfg(cfg, num_tiers=0)
        with pytest.raises(ConfigError):
            _serve_cfg(cfg, num_tiers=2, shed_tier=2)
        with pytest.raises(ConfigError):
            _serve_cfg(cfg, queue_depth=0)
        with pytest.raises(ConfigError):
            _serve_cfg(cfg, kv_token_budget=3)

    def test_cli_fleet_path(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "--config", "tiny", "--ep", "2", "--requests", "4",
            "--max-new", "3", "--prompt-len", "4", "--replicas", "2",
            "--mtbf", "0.01", "--backoff-base", "0.05",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet: 4 requests over 2 replicas" in out
        assert "goodput" in out

    def test_fleet_never_loses_under_deadlocked_replica(self, cfg):
        """The fleet treats any modelled ReproError as a crash; a plain
        FaultInjected killer at op 0 is the degenerate case."""
        scfg = _serve_cfg(cfg, num_requests=4)
        with pytest.raises(ReproError):
            _run_serving(scfg, requests=None, faults=FaultPlan().kill_rank(0, at_op=0),
                         pool=None)
