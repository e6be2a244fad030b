"""Windowed signals, burn-rate SLO alerting, and the fleet autoscaler.

The load-bearing guarantees:

* the sliding window is pure arithmetic on virtual timestamps — a query
  is a function of the samples and ``now`` alone, matches a brute-force
  filter for any insertion order and any query order, and tolerates the
  out-of-order settling a fleet produces;
* the multi-window burn-rate monitor fires only on sustained burn (long
  AND short window over threshold, enough samples) and resolves when the
  bleeding stops, recording each transition exactly once;
* the autoscaler's threshold/hysteresis/cooldown policy is deterministic
  on those signals, and an autoscaled fleet loses no request silently;
* exporter output (``to_prometheus`` / ``registry_records``) over a
  fleet run is byte-stable across identical runs and carries the
  per-replica router gauges.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.models import tiny_config
from repro.obs import (
    SlidingWindow,
    SLOMonitor,
    SLOObjective,
    slo_report,
    to_prometheus,
)
from repro.obs.export import registry_records
from repro.obs.slo import BurnRateWindow, default_burn_windows
from repro.obs.timeseries import percentile
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    FleetConfig,
    ServeConfig,
    run_fleet_serving,
)
from repro.simmpi import RunContext

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

CFG = tiny_config()


def _serve_cfg(**kw):
    base = dict(model=CFG, ep_size=2, num_requests=6, prompt_len=4,
                prompt_len_max=7, max_new_tokens=5, max_batch_size=3,
                seed=0, observe=True)
    base.update(kw)
    return ServeConfig(**base)


# --------------------------------------------------------------------- #
# Sliding window
# --------------------------------------------------------------------- #

# Timestamps on a quarter-second grid (exact in binary, so duplicates and
# samples exactly on a window edge are common); query clocks both on and
# between grid points, in any order, including before the first sample.
_TIMES = st.integers(0, 24).map(lambda i: i * 0.25)
_NOWS = st.one_of(
    st.integers(-4, 32).map(lambda i: i * 0.25),
    st.floats(-1.0, 8.0, allow_nan=False),
)
_STREAMS = st.lists(
    st.tuples(_TIMES, st.floats(-1e3, 1e3, allow_nan=False)), max_size=40
)
_WIDTHS = st.sampled_from([0.25, 1.0, 2.5, 10.0])


def _brute_window(samples, width, now):
    """Values with ``now - width < t <= now``, stable-sorted by ``t``."""
    ordered = sorted(samples, key=lambda s: s[0])
    return [v for t, v in ordered if now - width < t <= now]


class TestSlidingWindow:
    def test_trailing_view_drops_expired(self):
        win = SlidingWindow(1.0)
        for t in (0.0, 0.5, 1.0, 1.5):
            win.observe(t, t)
        assert win.window(1.5) == [1.0, 1.5]  # (0.5, 1.5]
        assert win.count(1.5) == 2
        assert win.sum(1.5) == 2.5
        assert win.rate(1.5) == 2.0

    def test_out_of_order_insert_lands_sorted(self):
        win = SlidingWindow(10.0)
        win.observe(1.0, 1.0)
        win.observe(3.0, 3.0)
        win.observe(2.0, 2.0)  # late settle from another replica
        assert win.window(3.0) == [1.0, 2.0, 3.0]

    def test_insert_before_expired_boundary_stays_expired(self):
        win = SlidingWindow(1.0)
        win.observe(0.0, 1.0)
        win.observe(5.0, 2.0)
        assert win.window(5.0) == [2.0]  # t=0 expired
        win.observe(0.5, 99.0)  # older than the expired boundary
        assert win.window(5.0) == [2.0]

    def test_quantile_matches_numpy(self):
        win = SlidingWindow(100.0)
        values = [float(v) for v in np.random.default_rng(0).normal(0, 1, 50)]
        for i, v in enumerate(values):
            win.observe(float(i), v)
        assert win.quantile(95, 49.0) == pytest.approx(
            np.percentile(values, 95)
        )
        assert win.mean(49.0) == pytest.approx(np.mean(values))

    def test_empty_window_is_zero(self):
        win = SlidingWindow(1.0)
        assert win.count(5.0) == 0
        assert win.quantile(95, 5.0) == 0.0
        assert win.sum(5.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SlidingWindow(0.0)
        with pytest.raises(ConfigError):
            SlidingWindow(1.0).quantile(101, 0.0)

    def test_query_does_not_depend_on_earlier_queries(self):
        win = SlidingWindow(1.0)
        for t in (0.5, 1.5, 2.5):
            win.observe(t, t)
        assert win.window(2.5) == [2.5]
        assert win.window(1.0) == [0.5]  # the clock may go backwards

    @settings(max_examples=200, deadline=None)
    @given(samples=_STREAMS, width=_WIDTHS, nows=st.lists(_NOWS, max_size=8))
    def test_matches_brute_force_for_any_insert_and_query_order(
        self, samples, width, nows
    ):
        win = SlidingWindow(width)
        for t, v in samples:
            win.observe(t, v)
        assert len(win) == len(samples)
        for now in nows:
            expected = _brute_window(samples, width, now)
            assert win.window(now) == expected
            assert win.count(now) == len(expected)
            assert win.sum(now) == (float(np.sum(expected)) if expected else 0.0)
            assert win.mean(now) == (float(np.mean(expected)) if expected else 0.0)
            for q in (0, 50, 95, 100):
                assert win.quantile(q, now) == percentile(expected, q)


# --------------------------------------------------------------------- #
# Burn-rate SLO monitor
# --------------------------------------------------------------------- #


def _monitor(**kw):
    base = dict(
        objective=SLOObjective(name="ttft", threshold_s=0.1, tier=0),
        windows=(BurnRateWindow(window_s=12.0, threshold=2.0,
                                severity="page"),),
    )
    base.update(kw)
    return SLOMonitor(**base)


class TestSLOMonitor:
    def test_objective_validation(self):
        with pytest.raises(ConfigError):
            SLOObjective(name="x", threshold_s=0.0)
        with pytest.raises(ConfigError):
            BurnRateWindow(window_s=1.0, threshold=0.0)
        with pytest.raises(ConfigError):
            default_burn_windows(0.0)
        with pytest.raises(ConfigError):
            SLOMonitor(SLOObjective(name="x", threshold_s=0.1), windows=())

    def test_default_ladder_scales_with_horizon(self):
        page, ticket, notice = default_burn_windows(7200.0)
        assert (page.window_s, page.threshold) == (10.0, 14.4)
        assert (ticket.window_s, ticket.threshold) == (60.0, 6.0)
        assert (notice.window_s, notice.threshold) == (720.0, 1.0)
        assert page.short_window_s == pytest.approx(10.0 / 12)

    def test_tier_scoping_ignores_other_traffic(self):
        mon = _monitor()
        assert mon.observe(0.0, 99.0, tier=1)  # out of scope -> "good"
        assert mon.total == 0
        assert not mon.observe(1.0, 99.0, tier=0)
        assert mon.bad_total == 1

    def test_burn_rate_is_budget_multiple(self):
        mon = _monitor()
        for i in range(8):
            mon.observe(float(i), 0.05, tier=0)  # good
        mon.observe(8.0, 0.5, tier=0)  # bad
        mon.observe(9.0, 0.5, tier=0)  # bad
        # 2 bad / 10 samples = 0.2 bad fraction over a 0.05 budget.
        assert mon.burn_rate(9.0, 12.0) == pytest.approx(4.0)

    def test_fires_only_with_sustained_burn_and_samples(self):
        mon = _monitor()
        mon.observe(0.0, 0.5, tier=0)
        assert mon.evaluate(0.0) == []  # 1 sample < MIN_SAMPLES
        for i in range(1, SLOMonitor.MIN_SAMPLES):
            mon.observe(float(i), 0.5, tier=0)
        fired = mon.evaluate(4.0)
        assert [f["kind"] for f in fired] == ["slo_alert"]
        assert fired[0]["severity"] == "page"
        assert fired[0]["burn_long"] > 2.0
        # Idempotent while the state holds.
        assert mon.evaluate(4.5) == []

    def test_resolves_when_short_window_drains(self):
        mon = _monitor()
        for i in range(SLOMonitor.MIN_SAMPLES):
            mon.observe(float(i), 0.5, tier=0)
        assert mon.evaluate(4.0)
        # Good traffic floods in; the short window's burn drops to zero.
        for i in range(20):
            mon.observe(4.1 + i * 0.1, 0.01, tier=0)
        resolved = mon.evaluate(6.1)
        assert [r["kind"] for r in resolved] == ["slo_resolve"]
        summary = mon.summary()
        assert summary["alerts_fired"] == 1
        assert summary["alerts_resolved"] == 1

    def test_untracked_width_is_refused(self):
        mon = _monitor()
        for i in range(10):
            mon.observe(float(i), 0.5, tier=0)
        for query in (mon.bad_fraction, mon.burn_rate):
            with pytest.raises(ConfigError, match=r"window_s 7\.0 .*\[1\.0, 12\.0\]"):
                query(9.0, 7.0)
        # The tracked widths still see every sample.
        assert mon.bad_fraction(9.0, 12.0) == 1.0
        assert mon.bad_fraction(9.0, 1.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(st.tuples(_TIMES, st.sampled_from([0.05, 0.5])),
                         max_size=40),
        width=_WIDTHS,
        nows=st.lists(_NOWS, max_size=8),
    )
    def test_burn_rate_matches_brute_force(self, samples, width, nows):
        objective = SLOObjective(name="ttft", threshold_s=0.1)
        window = BurnRateWindow(window_s=width, threshold=2.0)
        mon = SLOMonitor(objective, windows=(window,))
        for t, v in samples:
            mon.observe(t, v)
        for now in nows:
            for w in (width, window.short_window_s):
                bad = [0.0 if objective.good(v) else 1.0
                       for v in _brute_window(samples, w, now)]
                fraction = float(np.sum(bad)) / len(bad) if bad else 0.0
                assert mon.burn_rate(now, w) == fraction / objective.budget

    def test_transitions_land_on_the_context(self):
        context = RunContext(observe=True)
        mon = _monitor()
        for i in range(SLOMonitor.MIN_SAMPLES):
            mon.observe(float(i), 0.5, tier=0)
        mon.evaluate(4.0, context)
        events = [e for e in context.events if e["kind"] == "slo_alert"]
        assert len(events) == 1 and events[0]["slo"] == "ttft"
        assert len(context.spans.find(kind="slo")) == 1

    def test_report_is_byte_stable(self):
        def build():
            mon = _monitor()
            for i in range(SLOMonitor.MIN_SAMPLES):
                mon.observe(float(i), 0.5, tier=0)
            mon.evaluate(4.0)
            return slo_report([mon])
        text = build()
        assert text == build()
        assert "slo_alert" in text and "burn_long" in text


# --------------------------------------------------------------------- #
# Autoscaler policy
# --------------------------------------------------------------------- #


def _policy(**kw):
    base = dict(min_replicas=1, max_replicas=4, ttft_slo_s=0.1,
                signal_window_s=10.0, cooldown_s=5.0, spawn_delay_s=1.0,
                min_samples=2, queue_high=4.0, queue_low=1.0,
                scale_up_frac=0.9, scale_down_frac=0.4)
    base.update(kw)
    return AutoscalerConfig(**base)


class TestAutoscalerConfig:
    def test_pinned_range_is_legal(self):
        cfg = _policy(min_replicas=2, max_replicas=2)
        assert cfg.min_replicas == cfg.max_replicas == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            _policy(min_replicas=0)
        with pytest.raises(ConfigError):
            _policy(min_replicas=3, max_replicas=2)
        with pytest.raises(ConfigError):
            _policy(ttft_slo_s=0.0)
        with pytest.raises(ConfigError):
            _policy(scale_down_frac=0.9, scale_up_frac=0.4)
        with pytest.raises(ConfigError):
            _policy(queue_low=4.0, queue_high=4.0)
        with pytest.raises(ConfigError):
            _policy(dispatch_window_s=0.0)


class TestAutoscalerPolicy:
    def test_scales_up_on_windowed_p95(self):
        scaler = Autoscaler(_policy())
        scaler.observe_ttft(0.0, 0.2, tier=0)
        scaler.observe_ttft(1.0, 0.3, tier=0)
        decision = scaler.decide(1.0, active=1, backlog=0)
        assert decision["action"] == "up"
        assert "ttft_p95" in decision["reason"]

    def test_scales_up_on_backlog(self):
        scaler = Autoscaler(_policy())
        decision = scaler.decide(0.0, active=2, backlog=20)
        assert decision["action"] == "up"
        assert "backlog" in decision["reason"]

    def test_needs_min_samples_before_trusting_p95(self):
        scaler = Autoscaler(_policy())
        scaler.observe_ttft(0.0, 0.5, tier=0)  # one terrible sample
        assert scaler.decide(0.0, active=1, backlog=0)["action"] == "hold"

    def test_other_tiers_do_not_feed_the_signal(self):
        scaler = Autoscaler(_policy())
        scaler.observe_ttft(0.0, 0.5, tier=1)
        scaler.observe_ttft(1.0, 0.5, tier=1)
        assert scaler.decide(1.0, active=1, backlog=0)["action"] == "hold"

    def test_cooldown_gates_consecutive_decisions(self):
        scaler = Autoscaler(_policy(cooldown_s=5.0))
        assert scaler.decide(0.0, active=1, backlog=20)["action"] == "up"
        held = scaler.decide(2.0, active=2, backlog=20)
        assert held["action"] == "hold" and held["reason"] == "cooldown"
        assert scaler.decide(6.0, active=2, backlog=20)["action"] == "up"

    def test_scale_down_needs_both_calm_signals(self):
        scaler = Autoscaler(_policy())
        # Idle backlog but no TTFT samples: n == 0 counts as calm.
        assert scaler.decide(0.0, active=3, backlog=0)["action"] == "down"
        scaler2 = Autoscaler(_policy())
        scaler2.observe_ttft(0.0, 0.09, tier=0)  # p95 above down_frac * slo
        scaler2.observe_ttft(1.0, 0.09, tier=0)
        assert scaler2.decide(1.0, active=3, backlog=0)["action"] == "hold"

    def test_clamped_to_the_replica_range(self):
        scaler = Autoscaler(_policy(max_replicas=2))
        assert scaler.decide(0.0, active=2, backlog=50)["action"] == "hold"
        pinned = Autoscaler(_policy(min_replicas=2, max_replicas=2))
        assert pinned.decide(0.0, active=2, backlog=50)["action"] == "hold"
        assert pinned.decide(5.0, active=2, backlog=0)["action"] == "hold"


# --------------------------------------------------------------------- #
# Autoscaled fleet, end to end
# --------------------------------------------------------------------- #


def _burst_fleet(ceiling, **kw):
    """A ramp that floods a one-replica fleet mid-run."""
    scale = AutoscalerConfig(
        min_replicas=1, max_replicas=ceiling, ttft_slo_s=0.05,
        signal_window_s=0.05, cooldown_s=0.005, spawn_delay_s=0.002,
        dispatch_window_s=0.02, queue_high=2.0, queue_low=0.25,
        scale_up_frac=0.5, scale_down_frac=0.05, min_samples=2,
    )
    base = dict(
        serve=_serve_cfg(
            num_requests=12,
            arrival_ramp=((0.0, 50.0), (0.08, 2000.0)),
        ),
        replicas=1, max_rounds=2048, autoscale=scale,
        slos=(SLOObjective(name="premium-ttft", threshold_s=0.05, tier=0),),
        slo_horizon_s=2.0,
    )
    base.update(kw)
    return FleetConfig(**base)


class TestFleetAutoscale:
    def test_burst_triggers_scale_up_and_loses_nothing(self):
        fleet = run_fleet_serving(_burst_fleet(ceiling=4))
        assert fleet.scale_ups >= 1
        assert fleet.replicas_final >= 2
        states = {r["rid"]: r["state"] for r in fleet.requests}
        assert sorted(states) == list(range(12))
        assert all(s in ("done", "evicted", "shed") for s in states.values())
        kinds = {e["kind"] for e in fleet.context.events}
        assert "scale_up" in kinds
        assert fleet.context.spans.find(kind="autoscale")

    def test_pinned_policy_never_scales(self):
        fleet = run_fleet_serving(_burst_fleet(ceiling=1))
        assert fleet.scale_ups == 0 and fleet.scale_downs == 0
        assert fleet.replicas_final == 1
        assert {r["rid"] for r in fleet.requests} == set(range(12))

    def test_autoscaled_run_is_deterministic(self):
        def signature():
            fleet = run_fleet_serving(_burst_fleet(ceiling=4))
            return (
                fleet.scale_ups,
                fleet.scale_downs,
                fleet.simulated_time,
                tuple((r["rid"], r["state"], r["latency"])
                      for r in fleet.requests),
                tuple(tuple(sorted(a.items())) for m in fleet.slo
                      for a in m.alerts),
            )
        assert signature() == signature()

    def test_scale_metadata_in_metrics_record(self):
        fleet = run_fleet_serving(_burst_fleet(ceiling=4))
        record = fleet.metrics_record()
        assert record["scale_ups"] == fleet.scale_ups
        assert record["replicas_final"] == fleet.replicas_final


# --------------------------------------------------------------------- #
# Exporter byte-stability over fleet runs (S3)
# --------------------------------------------------------------------- #


class TestExporterStability:
    def _run(self):
        return run_fleet_serving(
            FleetConfig(serve=_serve_cfg(arrival_rate=200.0), replicas=2)
        )

    def test_prometheus_and_records_are_byte_stable(self):
        a, b = self._run(), self._run()
        assert to_prometheus(a.context.metrics) == to_prometheus(
            b.context.metrics
        )
        assert registry_records(a.context.metrics) == registry_records(
            b.context.metrics
        )

    def test_router_gauges_are_exported_per_replica(self):
        text = to_prometheus(self._run().context.metrics)
        for gauge in ("fleet_router_outstanding", "fleet_router_healthy",
                      "fleet_router_replicas"):
            assert f"repro_{gauge}" in text
        assert 'replica="0"' in text and 'replica="1"' in text

    def test_span_records_reach_the_run_report_stream(self):
        from repro.obs import collect_run_records

        fleet = self._run()
        records = collect_run_records(fleet.context)
        spans = [r for r in records if r.get("record") == "span"]
        assert spans and all("span_id" in r for r in spans)
