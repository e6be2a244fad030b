"""Unified telemetry subsystem: registry, profilers, flight recorder, report.

The load-bearing claims tested here:

* the metric registry is get-or-create by (name, labels), thread-safe
  under concurrent rank threads (increments sum exactly), and exports in
  deterministic sorted order regardless of creation order;
* a run launched without ``observe=True`` pays a shared no-op registry —
  identical loss trajectories to an observed run, and the no-op emission
  path costs microseconds, not milliseconds;
* the comm profiler prices traced collectives through the network cost
  model (utilization = model / recorded) and degrades to TrafficStats
  totals when untraced;
* the always-on flight recorder is bounded, and every ferried failure —
  scripted fault, deadlock, overflow — carries ``exc.flight_dump`` with
  each rank's recent operations;
* the markdown run report is byte-stable across same-seed runs.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    DeadlockError,
    FaultInjected,
    OverflowDetected,
)
from repro.models import tiny_config
from repro.network import NetworkModel, flat_network, sunway_network
from repro.obs import (
    NULL_REGISTRY,
    FlightRecorder,
    MetricRegistry,
    RouterTelemetry,
    build_report,
    collect_run_records,
    generate_run_report,
    profile_comm,
    registry_records,
    to_prometheus,
)
from repro.parallel import TrainingRunConfig, run_distributed_training
from repro.obs.flight import DEFAULT_LIMIT
from repro.simmpi import FaultPlan, RunContext, run_spmd
from repro.simmpi.comm import _COLLECTIVE_KINDS

CFG = tiny_config(num_experts=4)


def _observed_run(observe=True, trace=False, seed=0):
    return run_distributed_training(
        TrainingRunConfig(
            model=CFG, world_size=4, ep_size=2, num_steps=3,
            batch_size=2, seq_len=8, seed=seed, trace=trace, observe=observe,
        ),
        network=sunway_network(4, supernode_size=2),
    )


# ---------------------------------------------------------------------- #
# Metric registry
# ---------------------------------------------------------------------- #


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricRegistry()
        a = reg.counter("steps", strategy="moda")
        b = reg.counter("steps", strategy="moda")
        assert a is b
        # Label order at the call site is irrelevant.
        c = reg.gauge("loss", a=1, b=2)
        d = reg.gauge("loss", b=2, a=1)
        assert c is d
        assert len(reg) == 2

    def test_kind_clash_rejected(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError, match="already registered as counter"):
            reg.gauge("x")

    def test_counter_monotonic(self):
        reg = MetricRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            MetricRegistry().counter("")

    def test_gauge_and_histogram(self):
        reg = MetricRegistry()
        g = reg.gauge("world")
        g.set(4)
        g.set(2)
        assert g.value == 2.0
        h = reg.histogram("lat")
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        assert h.count == 4 and h.sum == 10.0
        assert h.percentile(50) == 2.5
        s = h.summary()
        assert s["mean"] == 2.5 and s["max"] == 4.0
        # Empty histograms summarize to zeros, never raise.
        empty = reg.histogram("idle")
        assert empty.percentile(95) == 0.0
        assert empty.summary()["count"] == 0

    def test_snapshot_deterministic_order(self):
        # Insertion order scrambled; export order must be sorted.
        reg = MetricRegistry()
        reg.counter("zz")
        reg.counter("aa", op="b")
        reg.counter("aa", op="a")
        names = [(r["metric"], r["labels"]) for r in reg.snapshot()]
        assert names == [("aa", "op=a"), ("aa", "op=b"), ("zz", "")]

    def test_merge_semantics(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        a.merge(b)
        assert a.counter("n").value == 5.0       # counters add
        assert a.gauge("g").value == 9.0         # absorbed launch wins
        assert a.histogram("h").count == 2       # samples concatenate
        a.merge(NULL_REGISTRY)                   # disabled merge is a no-op
        assert a.counter("n").value == 5.0

    def test_null_registry_is_inert(self):
        assert not NULL_REGISTRY.enabled
        inst = NULL_REGISTRY.counter("anything", rank=3)
        assert inst is NULL_REGISTRY.gauge("other")
        inst.inc()
        inst.set(5)
        inst.observe(1.0)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == []
        assert to_prometheus(NULL_REGISTRY) == ""


class TestRegistryConcurrency:
    def test_concurrent_rank_threads_sum_exactly(self):
        reg = MetricRegistry()
        ranks, per_rank = 8, 500

        def worker(rank):
            for _ in range(per_rank):
                reg.counter("train_steps").inc()
                reg.counter("rank_steps", rank=rank % 2).inc()
                reg.histogram("loss").observe(float(rank))

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(ranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("train_steps").value == ranks * per_rank
        assert (
            reg.counter("rank_steps", rank=0).value
            + reg.counter("rank_steps", rank=1).value
            == ranks * per_rank
        )
        assert reg.histogram("loss").count == ranks * per_rank

    def test_concurrent_creation_exports_deterministically(self):
        # Threads race to create differently-labeled series; the export
        # must come out in one sorted order regardless of who won.
        reg = MetricRegistry()

        def worker(rank):
            reg.counter("ops", rank=rank).inc(rank)

        threads = [threading.Thread(target=worker, args=(r,)) for r in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        labels = [r["labels"] for r in reg.snapshot()]
        assert labels == sorted(labels)
        assert to_prometheus(reg) == to_prometheus(reg)


# ---------------------------------------------------------------------- #
# Exporters
# ---------------------------------------------------------------------- #


class TestExporters:
    def test_prometheus_exposition(self):
        reg = MetricRegistry()
        reg.counter("comm_bytes", op="alltoall").inc(100)
        reg.gauge("train_loss", strategy="moda").set(2.5)
        reg.histogram("lat").observe_many([1.0, 3.0])
        text = to_prometheus(reg)
        assert "# TYPE repro_comm_bytes counter" in text
        assert 'repro_comm_bytes{op="alltoall"} 100' in text
        assert 'repro_train_loss{strategy="moda"} 2.5' in text
        assert "# TYPE repro_lat summary" in text
        assert 'repro_lat{quantile="0.5"} 2' in text
        assert "repro_lat_count 2" in text
        assert "repro_lat_sum 4" in text

    def test_prometheus_sanitizes_and_escapes(self):
        reg = MetricRegistry()
        reg.counter("bad-name.x", tag='va"l').inc()
        text = to_prometheus(reg)
        assert "repro_bad_name_x" in text
        assert 'tag="va\\"l"' in text

    def test_registry_records_tagged(self):
        reg = MetricRegistry()
        reg.counter("n").inc()
        recs = registry_records(reg)
        assert recs[0]["record"] == "metric"
        assert recs[0]["metric"] == "n"

    def test_enriched_trace(self, tmp_path):
        res = run_spmd(
            lambda comm: comm.barrier(), 2, network=flat_network(2), trace=True
        )
        res.context.record_event("restart", t=1.0, launch=2)
        path = res.context.write_chrome_trace(tmp_path / "t.json")
        blob = json.loads(path.read_text())
        names = {r.get("name") for r in blob["traceEvents"]}
        assert "process_name" in names and "thread_name" in names
        instants = [r for r in blob["traceEvents"] if r["ph"] == "i"]
        assert instants[0]["name"] == "restart"
        assert instants[0]["args"]["launch"] == 2

    def test_enriched_trace_guard(self, tmp_path):
        with pytest.raises(ConfigError, match="trace=True"):
            RunContext(trace=False).write_chrome_trace(tmp_path / "no.json")


# ---------------------------------------------------------------------- #
# Comm profiler
# ---------------------------------------------------------------------- #


def _comm_program(comm):
    comm.advance(1e-4)
    comm.allreduce(np.ones(256, dtype=np.float32))
    comm.allreduce(np.ones(256, dtype=np.float32))
    if comm.rank == 0:
        comm.send(b"x" * 64, dest=1)
    elif comm.rank == 1:
        comm.recv(source=0)
    comm.barrier()


class TestCommProfiler:
    def test_traced_records_per_op_rank(self):
        net = flat_network(2)
        res = run_spmd(_comm_program, 2, network=net, trace=True)
        prof = profile_comm(res.context, network=net)
        assert prof.traced
        allreduce = [r for r in prof if r.op == "allreduce"]
        assert {r.rank for r in allreduce} == {0, 1}
        for r in allreduce:
            assert r.calls == 2
            assert r.nbytes == 2 * 256 * 4
            assert r.seconds > 0
            assert r.model_seconds is not None
            # Ranks arrive together here, so the recorded time is the
            # modelled time: utilization == 1.
            assert r.utilization == pytest.approx(1.0, rel=1e-6)

    def test_per_op_collapse_and_table(self):
        net = flat_network(2)
        res = run_spmd(_comm_program, 2, network=net, trace=True)
        prof = profile_comm(res.context, network=net)
        per_op = {r.op: r for r in prof.per_op()}
        assert per_op["allreduce"].rank is None
        assert per_op["allreduce"].nbytes == 2 * 2 * 256 * 4  # both ranks
        table = prof.format_table()
        assert "allreduce" in table and "util" in table
        assert table == prof.format_table()  # deterministic

    def test_untraced_falls_back_to_stats(self):
        res = run_spmd(_comm_program, 2, network=flat_network(2))
        prof = profile_comm(res.context)
        assert not prof.traced
        ops = {r.op for r in prof}
        assert "allreduce" in ops and "p2p" in ops
        rec = next(r for r in prof if r.op == "allreduce")
        assert rec.rank is None and rec.calls == 2
        assert rec.utilization is None
        assert rec.seconds == 0.0 and rec.bandwidth == 0.0

    def test_records_are_jsonl_safe(self):
        res = run_spmd(_comm_program, 2, network=flat_network(2), trace=True)
        for rec in profile_comm(res.context).records():
            json.dumps(rec)
            assert rec["model_seconds"] == -1.0  # unpriced without a network


def _every_collective(comm):
    sub = comm.Split(color=comm.rank % 2, key=comm.rank)
    x = np.ones(64, dtype=np.float32)
    comm.barrier()
    comm.bcast(x if comm.rank == 0 else None)
    comm.gather(x)
    comm.allgather(x)
    comm.allreduce(x)
    comm.alltoall([x] * comm.size)
    reqs = [comm.ialltoall([x] * comm.size), comm.iallreduce(x)]
    sub.allreduce(x)
    for req in reqs:
        req.wait()


#: Each blocking collective as one call on a fresh world of 4 (clocks at 0).
_ONE_CALL = {
    "barrier": lambda c, x: c.barrier(),
    "bcast": lambda c, x: c.bcast(x if c.rank == 0 else None),
    "gather": lambda c, x: c.gather(x),
    "allgather": lambda c, x: c.allgather(x),
    "allreduce": lambda c, x: c.allreduce(x),
    "alltoall": lambda c, x: c.alltoall([x] * c.size),
}


class TestProfilerPricesFromCommsTable:
    """The profiler re-prices from the op table ``Comm`` issues from."""

    def test_every_collective_is_priced(self):
        """The table has a row for each op ``Comm`` records and no other,
        and each ``NetworkModel`` collective formula prices some row."""
        net = sunway_network(4, supernode_size=2)
        res = run_spmd(_every_collective, 4, network=net, trace=True)
        prof = profile_comm(res.context, network=net)
        by_op = {r.op for r in prof}
        assert by_op == set(_COLLECTIVE_KINDS)
        assert set(_ONE_CALL) <= by_op
        for r in prof:
            assert r.model_seconds is not None, r.op
        formulas = {name.removesuffix("_time") for name in vars(NetworkModel)
                    if name.endswith("_time")}
        assert formulas - {"p2p"} <= set(_COLLECTIVE_KINDS.values())

    @pytest.mark.parametrize("op", sorted(_ONE_CALL))
    def test_model_seconds_is_the_recorded_charge(self, op):
        """Entered by the full world at virtual time 0, ``0 + cost`` is exact:
        the profiler's price of the one call is its recorded ``t_end``."""
        net = sunway_network(4, supernode_size=2)
        x = np.ones(96, dtype=np.float32)
        res = run_spmd(lambda comm: _ONE_CALL[op](comm, x), 4, network=net, trace=True)
        events = [e for e in res.context.trace_events if e.op == op]
        assert len(events) == 4 and all(e.t_start == 0.0 for e in events)
        for rec in profile_comm(res.context, network=net):
            if rec.op == op:
                t_end = next(e.t_end for e in events if e.rank == rec.rank)
                assert rec.calls == 1 and rec.model_seconds == t_end


# ---------------------------------------------------------------------- #
# Router telemetry
# ---------------------------------------------------------------------- #


class TestRouterTelemetry:
    def test_record_and_summarize(self):
        tel = RouterTelemetry()
        tel.record(0, 0, [10, 10, 10, 10])
        tel.record(1, 0, [40, 0, 0, 0], drop_fraction=0.25)
        tel.record(0, 1, [5, 5, 5, 5])
        assert len(tel) == 3
        assert tel.layers() == [0, 1]
        assert tel.load_matrix(0).shape == (2, 4)
        summary = {r["layer"]: r for r in tel.layer_summary()}
        assert summary[0]["steps"] == 2
        assert summary[0]["max_imbalance"] == pytest.approx(4.0)
        assert summary[0]["mean_drop_fraction"] == pytest.approx(0.125)
        assert summary[1]["mean_imbalance"] == pytest.approx(1.0)

    def test_load_matrix_empty_layer(self):
        with pytest.raises(ConfigError, match="no router samples"):
            RouterTelemetry().load_matrix(0)

    def test_heatmap_deterministic(self):
        tel = RouterTelemetry()
        tel.record(0, 0, [0, 1, 2, 4])
        art = tel.heatmap(0)
        assert art.startswith("step    0 |")
        assert art.endswith("|")
        assert art == tel.heatmap(0)
        # Peak expert renders as the hottest ramp character.
        assert art.rstrip("|")[-1] == "@"

    def test_absorb(self):
        tel = RouterTelemetry()
        tel.record(0, 0, [1, 3])
        other = RouterTelemetry()
        other.record(1, 0, [2, 2])
        tel.absorb(other)
        assert len(tel) == 2 and tel.load_matrix(0).shape == (2, 2)


# ---------------------------------------------------------------------- #
# Flight recorder
# ---------------------------------------------------------------------- #


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder()
        n = DEFAULT_LIMIT + 6
        for i in range(n):
            rec.record(0, f"op{i}", float(i), float(i) + 0.5)
        dump = rec.dump()
        assert dump["limit"] == DEFAULT_LIMIT
        assert [e["op"] for e in dump["ranks"][0]] == [f"op{i}" for i in range(6, n)]
        assert dump["last_op"][0] == f"op{n - 1}"

    def test_notes_and_phases_in_dump(self):
        rec = FlightRecorder()
        rec.note("failure", t=2.0, launch=1)
        dump = rec.dump(phases={"forward": 1.5})
        assert dump["notes"][0]["kind"] == "failure"
        assert dump["phases"] == {"forward": 1.5}

    def test_ingest_shifts_clock(self):
        a, b = FlightRecorder(), FlightRecorder()
        b.record(0, "barrier", 1.0, 2.0)
        b.note("failure", t=2.0)
        a.ingest(b.dump(), clock_offset=10.0)
        dump = a.dump()
        assert dump["ranks"][0][0]["t_start"] == 11.0
        assert dump["notes"][0]["t"] == 12.0


class TestFlightDumpOnFailure:
    """Fault, deadlock, and overflow all ferry through run_spmd's single
    error path, so each carries the same post-mortem evidence."""

    def test_scripted_fault_kill_carries_dump(self):
        plan = FaultPlan().kill_rank(1, at_op=2)

        def program(comm):
            comm.barrier()            # op 0
            comm.allreduce(np.ones(8))  # op 1
            comm.barrier()            # op 2: rank 1 dies here
            comm.barrier()

        with pytest.raises(FaultInjected) as ei:
            run_spmd(program, 2, network=flat_network(2), faults=plan)
        dump = ei.value.flight_dump
        assert dump["limit"] >= 1
        # Rank 0 completed its first collectives before the world died.
        ops0 = [e["op"] for e in dump["ranks"][0]]
        assert "barrier" in ops0 and "allreduce" in ops0
        assert set(dump["last_op"]) <= {0, 1}
        for events in dump["ranks"].values():
            for e in events:
                assert e["t_end"] >= e["t_start"] >= 0.0

    def test_deadlock_carries_dump(self):
        def program(comm):
            comm.allreduce(np.ones(4))
            if comm.rank == 0:
                comm.recv(source=1)  # nobody sends: wedge

        with pytest.raises(DeadlockError) as ei:
            run_spmd(program, 2, network=flat_network(2), timeout=1.0)
        dump = ei.value.flight_dump
        # The completed allreduce is on record for both ranks.
        assert dump["last_op"][1] == "allreduce"
        assert "allreduce" in [e["op"] for e in dump["ranks"][0]]

    def test_overflow_carries_dump(self):
        def program(comm):
            comm.barrier()
            if comm.rank == 1:
                raise OverflowDetected("kv cache overflow")
            comm.barrier()

        with pytest.raises(OverflowDetected) as ei:
            run_spmd(program, 2, network=flat_network(2), timeout=1.0)
        assert ei.value.flight_dump["last_op"][1] == "barrier"

    def test_supervisor_failure_event_references_flight(self, tmp_path):
        from repro.parallel import TrainingRunConfig
        from repro.resilience import ElasticRunConfig, Supervisor
        from repro.simmpi import FaultModel

        # Six steps, so the seeded MTBF crash of the shrunk world lands
        # mid-run (four steps of the world-2 run end 1.8 µs before it).
        cfg = ElasticRunConfig(
            run=TrainingRunConfig(model=CFG, world_size=4, ep_size=2, num_steps=6,
                                  batch_size=2, seq_len=8, seed=0),
            checkpoint_every=2, checkpoint_dir=tmp_path / "ckpt", max_restarts=8,
        )
        result = Supervisor(
            cfg, faults=FaultModel(seed=0, mtbf=1e-3, dead_nodes=(3,))
        ).run()
        failures = result.context.events_of("failure")
        assert failures, "the dead node must produce at least one failure"
        assert all("flight_events" in f and "flight_last_op" in f
                   for f in failures)
        # Faults past the first collective leave recorded ops behind.
        with_evidence = [f for f in failures if f["flight_events"] > 0]
        assert with_evidence
        assert any(isinstance(f["flight_last_op"], str) for f in with_evidence)


# ---------------------------------------------------------------------- #
# Observe parity: no-op registry must not perturb the run
# ---------------------------------------------------------------------- #


class TestObserveParity:
    def test_loss_trajectories_identical(self):
        plain = _observed_run(observe=False)
        observed = _observed_run(observe=True)
        assert plain.losses == observed.losses
        assert plain.simulated_time == observed.simulated_time
        assert not plain.context.observing
        assert observed.context.observing
        assert observed.context.metrics.counter("train_steps", strategy="moda").value == 3.0
        assert len(observed.context.router) > 0

    def test_null_emission_is_cheap(self):
        # Sanity bound, not a benchmark: 10k no-op emissions must cost
        # microseconds each at worst, even on a loaded CI box.
        ctx = RunContext(observe=False)
        t0 = time.perf_counter()
        for _ in range(10_000):
            ctx.metrics.counter("train_steps", strategy="moda").inc()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"no-op emission too slow: {elapsed:.3f}s / 10k"


# ---------------------------------------------------------------------- #
# Run records + markdown report
# ---------------------------------------------------------------------- #


class TestRunReport:
    def test_collect_run_records_types(self):
        res = _observed_run(trace=True)
        records = collect_run_records(
            res.context, network=sunway_network(4, supernode_size=2)
        )
        kinds = {r["record"] for r in records}
        assert kinds == {"context", "comm", "router", "metric"}

    def test_report_sections_render(self):
        res = _observed_run(trace=True)
        records = collect_run_records(res.context)
        records += [{"step": s, "loss": loss} for s, loss in enumerate(res.losses)]
        text = build_report(records, title="T")
        for section in ("# T", "## Phase breakdown", "## Traffic",
                        "## Communication", "## Router", "## Metrics",
                        "## Training loss"):
            assert section in text
        assert "Expert-load heatmap" in text

    def test_report_byte_stable_across_same_seed_runs(self):
        texts = []
        for _ in range(2):
            res = _observed_run(trace=True, seed=7)
            records = collect_run_records(res.context)
            texts.append(build_report(records, title="Stable"))
        assert texts[0] == texts[1]

    def test_generate_run_report_roundtrip(self, tmp_path):
        from repro.train.metrics import MetricsLogger

        res = _observed_run()
        metrics = tmp_path / "run.jsonl"
        with MetricsLogger(metrics) as logger:
            for s, loss in enumerate(res.losses):
                logger.log({"step": s, "loss": loss})
            logger.log_events(collect_run_records(res.context))
        out = tmp_path / "report.md"
        text = generate_run_report(metrics, out_path=out)
        assert out.read_text() == text
        assert "## Router" in text and "## Training loss" in text

    def test_generate_run_report_wants_jsonl(self, tmp_path):
        with pytest.raises(ConfigError, match="jsonl"):
            generate_run_report(tmp_path / "metrics.csv")

    def test_empty_records_still_render(self):
        text = build_report([], title="Empty")
        assert text.startswith("# Empty")
        assert "0 records." in text


# ---------------------------------------------------------------------- #
# Context integration
# ---------------------------------------------------------------------- #


class TestContextIntegration:
    def test_absorb_merges_all_components(self):
        session = RunContext(observe=True)
        launch = RunContext(observe=True)
        launch.metrics.counter("n").inc(2)
        launch.router.record(0, 0, [1, 3])
        launch.flight.record(0, "barrier", 1.0, 2.0)
        session.absorb(launch, clock_offset=5.0)
        assert session.metrics.counter("n").value == 2.0
        assert len(session.router) == 1
        assert session.flight.dump()["ranks"][0][0]["t_start"] == 6.0

    def test_summary_reports_observability(self):
        ctx = RunContext(observe=True)
        ctx.metrics.counter("n").inc()
        s = ctx.summary()
        assert s["observing"] is True
        assert s["num_metric_series"] == 1
        assert s["num_router_samples"] == 0
        assert RunContext().summary()["observing"] is False

    def test_record_event_also_notes_flight(self):
        ctx = RunContext()
        ctx.record_event("failure", t=3.0, rank=1)
        notes = ctx.flight.dump()["notes"]
        assert notes[0]["kind"] == "failure" and notes[0]["rank"] == 1

    def test_serve_emits_into_registry(self):
        from repro.serve import ServeConfig, run_serving

        res = run_serving(ServeConfig(
            model=CFG, ep_size=2, num_requests=4, max_new_tokens=4,
            max_batch_size=4, observe=True, seed=0,
        ))
        reg = res.context.metrics
        assert reg.counter("serve_iterations").value > 0
        assert reg.counter("serve_decode_tokens").value == 16.0
        assert reg.histogram("serve_ttft_seconds").count == 4
        assert len(res.context.router) > 0

    def test_elastic_emits_into_session_registry(self, tmp_path):
        from repro.parallel import TrainingRunConfig
        from repro.resilience import ElasticRunConfig, Supervisor

        res = Supervisor(ElasticRunConfig(
            run=TrainingRunConfig(model=CFG, world_size=4, ep_size=2, num_steps=4,
                                  batch_size=2, seq_len=8, seed=0, observe=True),
            checkpoint_every=2, checkpoint_dir=tmp_path / "ckpt",
        )).run()
        reg = res.context.metrics
        assert reg.counter("train_steps", strategy="elastic").value == 4.0
        assert reg.gauge("session_final_world_size").value == 4.0
        assert len(res.context.router) > 0
