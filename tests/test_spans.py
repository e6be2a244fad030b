"""Span tracing: tracer mechanics, the coverage invariant, fleet trees.

The load-bearing guarantees:

* :class:`Tracer` assigns deterministic creation-order ids, so two
  same-seed runs produce byte-identical JSON span dumps;
* :func:`span_coverage` accounts every virtual second of a root span to
  on-path children plus *explicit* gaps — malformed trees (overlapping
  or escaping children) raise instead of mis-attributing;
* every admitted fleet request carries exactly one root span whose
  on-path children cover its recorded latency — under crashes, hedges,
  and timeouts too;
* the null tracer records nothing, so tracing-off runs stay bit-identical
  to pre-span builds (same tokens, same traffic).
"""

import json

import pytest

from repro.errors import ConfigError
from repro.models import tiny_config
from repro.obs import NULL_TRACER, Span, Tracer, span_coverage
from repro.parallel import TrainingRunConfig
from repro.resilience import ElasticRunConfig, Supervisor
from repro.serve import FleetConfig, ServeConfig, run_fleet_serving
from repro.simmpi import FaultModel, RunContext

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

CFG = tiny_config()


def _serve_cfg(**kw):
    base = dict(model=CFG, ep_size=2, num_requests=6, prompt_len=4,
                prompt_len_max=7, max_new_tokens=5, max_batch_size=3,
                seed=0, observe=True)
    base.update(kw)
    return ServeConfig(**base)


# --------------------------------------------------------------------- #
# Tracer mechanics
# --------------------------------------------------------------------- #


class TestTracer:
    def test_ids_follow_creation_order(self):
        tr = Tracer()
        a = tr.begin("root", 0.0, kind="request")
        b = tr.add("child", 1.0, 2.0, parent=a, kind="prefill")
        c = tr.instant("mark", 2.0, parent=a, kind="admission")
        assert [s.span_id for s in (a, b, c)] == [0, 1, 2]
        assert tr.children(a) == [b, c]
        assert b.duration == 1.0 and c.duration == 0.0

    def test_open_span_has_zero_duration_until_closed(self):
        tr = Tracer()
        span = tr.begin("work", 1.0)
        assert not span.closed and span.duration == 0.0
        tr.end(span, 3.5, outcome="ok")
        assert span.closed and span.duration == 2.5
        assert span.attrs["outcome"] == "ok"

    def test_double_close_raises(self):
        tr = Tracer()
        span = tr.add("x", 0.0, 1.0)
        with pytest.raises(ConfigError, match="already closed"):
            tr.end(span, 2.0)

    def test_end_before_start_raises(self):
        tr = Tracer()
        span = tr.begin("x", 5.0)
        with pytest.raises(ConfigError, match="before start"):
            tr.end(span, 4.0)

    def test_unknown_parent_raises(self):
        tr = Tracer()
        with pytest.raises(ConfigError, match="unknown parent"):
            tr.begin("x", 0.0, parent=42)

    def test_navigation(self):
        tr = Tracer()
        r1 = tr.add("req", 0.0, 2.0, kind="request")
        c1 = tr.add("prefill", 0.0, 1.0, parent=r1, kind="prefill")
        g1 = tr.add("inner", 0.2, 0.4, parent=c1)
        r2 = tr.add("req", 1.0, 3.0, kind="request")
        assert tr.roots() == [r1, r2]
        assert tr.subtree(r1) == [r1, c1, g1]
        assert tr.find(kind="request") == [r1, r2]
        assert tr.find(name="prefill") == [c1]
        assert len(tr) == 4

    def test_absorb_shifts_clocks_and_preserves_trees(self):
        inner = Tracer()
        root = inner.add("req", 0.0, 1.0, kind="request")
        inner.add("decode", 0.5, 1.0, parent=root, kind="decode")
        open_span = inner.begin("pending", 0.75)
        outer = Tracer()
        outer.add("before", 0.0, 10.0)
        outer.absorb(inner, clock_offset=10.0)
        absorbed_root = outer.find(name="req")[0]
        child = outer.children(absorbed_root)[0]
        assert (absorbed_root.t_start, absorbed_root.t_end) == (10.0, 11.0)
        assert (child.t_start, child.t_end) == (10.5, 11.0)
        assert child.parent_id == absorbed_root.span_id
        pending = outer.find(name="pending")[0]
        assert pending.t_start == 10.75 and pending.t_end is None
        assert open_span.t_end is None  # source untouched

    def test_absorb_null_tracer_is_noop(self):
        tr = Tracer()
        tr.add("x", 0.0, 1.0)
        tr.absorb(NULL_TRACER, clock_offset=5.0)
        assert len(tr) == 1

    def test_json_dump_is_byte_stable(self, tmp_path):
        def build():
            tr = Tracer()
            r = tr.add("req", 0.0, 2.0, kind="request", rid=3, tier=0)
            tr.add("decode", 1.0, 2.0, parent=r, kind="decode", tokens=5)
            return tr
        a = build().write_json(tmp_path / "a.json").read_bytes()
        b = build().write_json(tmp_path / "b.json").read_bytes()
        assert a == b
        dump = json.loads(a)
        assert [s["span_id"] for s in dump["spans"]] == [0, 1]
        assert dump["spans"][0]["attr_rid"] == 3

    def test_chrome_events_slices_and_flows(self, tmp_path):
        def span_records(ctx):
            path = ctx.write_chrome_trace(tmp_path / "t.json")
            return [e for e in json.loads(path.read_text())["traceEvents"]
                    if e["pid"] == 1]

        ctx = RunContext(trace=True)
        root = ctx.spans.add("req", 0.0, 2.0, kind="request")
        ctx.spans.add("decode", 1.0, 2.0, parent=root, kind="decode")
        events = span_records(ctx)
        slices = [e for e in events if e["ph"] == "X"]
        flows = [e for e in events if e["ph"] in ("s", "f")]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(slices) == 2 and len(flows) == 2
        # Both spans render in the root's lane; flows bind parent->child.
        assert {e["tid"] for e in slices} == {root.span_id}
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        assert span_records(RunContext(trace=True)) == []

    def test_null_tracer_records_nothing(self):
        span = NULL_TRACER.add("x", 0.0, 1.0)
        NULL_TRACER.end(NULL_TRACER.begin("y", 0.0), 1.0)
        NULL_TRACER.instant("z", 0.0)
        assert span.span_id == -1
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.roots() == []
        assert not NULL_TRACER.enabled


# --------------------------------------------------------------------- #
# The coverage invariant
# --------------------------------------------------------------------- #


class TestSpanCoverage:
    def test_children_plus_gaps_cover_the_root(self):
        tr = Tracer()
        root = tr.add("req", 0.0, 10.0, kind="request")
        tr.add("queue", 0.0, 3.0, parent=root, kind="queue")
        tr.add("decode", 4.0, 9.0, parent=root, kind="decode")
        cov = span_coverage(tr, root)
        assert cov["root_seconds"] == 10.0
        assert cov["span_seconds"] == 8.0
        assert cov["gaps"] == [(3.0, 4.0), (9.0, 10.0)]
        assert cov["span_seconds"] + cov["gap_seconds"] == cov["root_seconds"]

    def test_off_path_children_do_not_count(self):
        tr = Tracer()
        root = tr.add("req", 0.0, 4.0, kind="request")
        tr.add("decode", 0.0, 4.0, parent=root, kind="decode")
        # A hedge races the decode over the same interval: legal, off-path.
        tr.add("hedge", 1.0, 3.0, parent=root, kind="hedge")
        tr.add("probe", 2.0, 3.0, parent=root, off_path=True)
        cov = span_coverage(tr, root)
        assert cov["children"] == 1
        assert cov["span_seconds"] == 4.0 and cov["gap_seconds"] == 0.0

    def test_overlapping_children_raise(self):
        tr = Tracer()
        root = tr.add("req", 0.0, 10.0, kind="request")
        tr.add("a", 0.0, 5.0, parent=root)
        tr.add("b", 4.0, 8.0, parent=root)
        with pytest.raises(ConfigError, match="overlaps"):
            span_coverage(tr, root)

    def test_child_escaping_root_raises(self):
        tr = Tracer()
        root = tr.add("req", 0.0, 10.0, kind="request")
        tr.add("a", 5.0, 11.0, parent=root)
        with pytest.raises(ConfigError, match="escapes"):
            span_coverage(tr, root)

    def test_open_root_raises(self):
        tr = Tracer()
        root = tr.begin("req", 0.0, kind="request")
        with pytest.raises(ConfigError, match="still open"):
            span_coverage(tr, root)


# --------------------------------------------------------------------- #
# Fleet span trees, end to end
# --------------------------------------------------------------------- #


def _assert_fleet_coverage(fleet):
    spans = fleet.context.spans
    roots = [s for s in spans.roots() if s.kind == "request"]
    assert len(roots) == len(fleet.requests)
    by_rid = {r["rid"]: r for r in fleet.requests}
    assert sorted(r.attrs["rid"] for r in roots) == sorted(by_rid)
    for root in roots:
        cov = span_coverage(spans, root)
        rec = by_rid[root.attrs["rid"]]
        if rec["state"] == "done":
            assert cov["root_seconds"] == pytest.approx(rec["latency"], abs=1e-9)
    return spans, roots


class TestFleetSpans:
    def test_every_request_has_one_covered_root(self):
        fleet = run_fleet_serving(
            FleetConfig(serve=_serve_cfg(), replicas=2)
        )
        spans, roots = _assert_fleet_coverage(fleet)
        kinds = {s.kind for s in spans}
        assert {"request", "admission", "prefill", "decode"} <= kinds

    def test_crash_attempts_stay_covered(self):
        fleet = run_fleet_serving(
            FleetConfig(serve=_serve_cfg(num_requests=8, arrival_rate=200.0),
                        replicas=2, mtbf=0.005,
                        backoff_base=0.05, backoff_cap=0.4)
        )
        assert fleet.crashes >= 1
        spans, roots = _assert_fleet_coverage(fleet)
        retries = spans.find(kind="retry")
        assert retries, "crashed attempts should leave retry spans"
        assert all(s.attrs["why"] == "crash" for s in retries)

    def test_hedges_are_off_path_children(self):
        fleet = run_fleet_serving(
            FleetConfig(serve=_serve_cfg(num_requests=8), replicas=2,
                        hedge_after_ms=0.005)
        )
        assert fleet.hedges >= 1
        spans, roots = _assert_fleet_coverage(fleet)
        hedges = spans.find(kind="hedge")
        assert hedges and all(not s.on_path for s in hedges)
        assert all(s.parent_id is not None for s in hedges)

    def test_tracing_off_records_nothing(self):
        """With observe off the session carries the shared null tracer, so
        span emission costs nothing and output matches pre-span builds
        (telemetry itself costs modelled time, so only token content is
        comparable across the flag)."""
        def run(observe):
            return run_fleet_serving(
                FleetConfig(
                    serve=_serve_cfg(observe=observe, arrival_rate=200.0),
                    replicas=2, mtbf=0.005,
                    backoff_base=0.05, backoff_cap=0.4,
                )
            )
        off = run(False)
        assert not off.context.spans.enabled
        assert len(off.context.spans) == 0
        on = run(True)
        assert len(on.context.spans) > 0
        tokens = lambda fleet: {  # noqa: E731
            r["rid"]: (r["state"], tuple(r["tokens"])) for r in fleet.requests
        }
        assert tokens(on) == tokens(off)

    def test_span_dump_deterministic_across_runs(self):
        def dump():
            fleet = run_fleet_serving(
                FleetConfig(serve=_serve_cfg(arrival_rate=200.0), replicas=2)
            )
            return json.dumps(
                {"spans": fleet.context.spans.records()}, sort_keys=True
            )
        assert dump() == dump()

    def test_enriched_trace_carries_span_lanes(self, tmp_path):
        fleet = run_fleet_serving(
            FleetConfig(serve=_serve_cfg(trace=True), replicas=2)
        )
        path = fleet.context.write_chrome_trace(tmp_path / "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        span_slices = [e for e in events
                       if e.get("pid") == 1 and e.get("ph") == "X"]
        flows = [e for e in events if e.get("ph") in ("s", "f")]
        assert len(span_slices) == len(fleet.context.spans)
        assert flows, "parent-child flow arrows should be present"

    def test_each_replica_is_its_own_trace_process(self, tmp_path):
        """The parent drew every replica's rank 0 on one lane (pid 0)."""
        fleet = run_fleet_serving(
            FleetConfig(serve=_serve_cfg(trace=True), replicas=2)
        )
        events = json.loads(
            fleet.context.write_chrome_trace(tmp_path / "trace.json").read_text()
        )["traceEvents"]
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e["name"] == "process_name"}
        assert names == {0: "replica 0", 1: "spans", 2: "replica 1"}
        rank0_pids = {e["pid"] for e in events
                      if e["ph"] == "X" and e["tid"] == 0 and e["pid"] != 1}
        assert rank0_pids == {0, 2}
        worlds = {e.world for e in fleet.context.trace_events}
        assert worlds == {0, 1}


# --------------------------------------------------------------------- #
# Plain single-engine span trees (emit_request_spans)
# --------------------------------------------------------------------- #


class TestEngineSpans:
    def test_plain_serving_trees_cover_latency(self):
        from repro.serve import emit_request_spans, run_serving

        result = run_serving(_serve_cfg(num_requests=8, arrival_rate=400.0))
        emit_request_spans(result)
        spans = result.context.spans
        roots = [s for s in spans.roots() if s.kind == "request"]
        assert len(roots) == len(result.requests)
        by_rid = {r["rid"]: r for r in result.requests}
        for root in roots:
            cov = span_coverage(spans, root)
            rec = by_rid[root.attrs["rid"]]
            if rec["state"] == "done":
                assert cov["root_seconds"] == pytest.approx(
                    rec["latency"], abs=1e-9
                )
        kinds = {s.kind for s in spans}
        assert {"request", "admission", "prefill", "decode"} <= kinds

    def test_fleet_of_one_draws_the_engine_trees(self):
        """A single-engine result is a fleet of one: on a healthy workload
        both callers of the one span builder give every request the same
        tree (names, kinds, start/end); the fleet only adds attributes."""
        from repro.serve import emit_request_spans, run_serving

        cfg = _serve_cfg(num_requests=8, arrival_rate=400.0)
        engine = run_serving(cfg)
        emit_request_spans(engine)
        fleet = run_fleet_serving(FleetConfig(serve=cfg, replicas=1))
        assert fleet.completed == engine.completed == 8

        def trees(spans):
            return {
                root.attrs["rid"]: [(s.name, s.kind, s.t_start, s.t_end)
                                    for s in spans.subtree(root)]
                for root in spans.roots()
            }

        assert trees(fleet.context.spans) == trees(engine.context.spans)
        engine_roots = {s.attrs["rid"]: s for s in engine.context.spans.roots()}
        for root in fleet.context.spans.roots():
            plain = engine_roots[root.attrs["rid"]].attrs
            assert set(root.attrs) - set(plain) == {"attempts", "replica", "hedged"}
            assert {k: root.attrs[k] for k in plain} == plain

    def test_unobserved_result_is_a_noop(self):
        from repro.serve import emit_request_spans, run_serving

        result = run_serving(_serve_cfg(observe=False))
        emit_request_spans(result)
        assert len(result.context.spans) == 0


# --------------------------------------------------------------------- #
# Supervisor launch/backoff spans
# --------------------------------------------------------------------- #


class TestSupervisorSpans:
    def test_launches_and_backoffs_become_spans(self, tmp_path):
        cfg = ElasticRunConfig(
            run=TrainingRunConfig(model=CFG, world_size=4, ep_size=2, num_steps=6,
                                  batch_size=2, seq_len=8, seed=0, observe=True),
            checkpoint_every=2, checkpoint_dir=tmp_path / "ckpt", max_restarts=8,
        )
        faults = FaultModel(seed=0, mtbf=1e-3, dead_nodes=(3,))
        res = Supervisor(cfg, faults=faults).run()
        assert res.restarts >= 1
        spans = res.context.spans
        launches = spans.find(kind="launch")
        assert len(launches) == len(res.world_history)
        assert all(s.closed for s in launches)
        assert launches[-1].attrs["outcome"] == "complete"
        assert any(s.attrs["outcome"] == "failure" for s in launches[:-1])
        backoffs = spans.find(kind="backoff")
        assert backoffs and all(
            s.duration == pytest.approx(s.attrs["seconds"]) for s in backoffs
        )
