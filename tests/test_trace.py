"""Virtual-time tracing of SPMD runs."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.network import flat_network
from repro.simmpi import RunContext, TraceEvent, run_spmd


def program(comm):
    comm.advance(0.5)
    comm.allreduce(np.ones(1000, dtype=np.float32))
    if comm.rank == 0:
        comm.send(b"payload!", dest=1)
    elif comm.rank == 1:
        comm.recv(source=0)
    comm.barrier()


class TestTracing:
    def test_disabled_by_default(self):
        res = run_spmd(program, 2, network=flat_network(2))
        assert res.trace is None

    def test_events_recorded(self):
        res = run_spmd(program, 2, network=flat_network(2), trace=True)
        ops = {e.op for e in res.trace}
        assert {"compute", "allreduce", "send", "recv", "barrier"} <= ops

    def test_events_per_rank(self):
        res = run_spmd(program, 2, network=flat_network(2), trace=True)
        ranks = {e.rank for e in res.trace}
        assert ranks == {0, 1}
        # Each rank: compute + allreduce + barrier (+ send or recv).
        for r in (0, 1):
            assert len([e for e in res.trace if e.rank == r]) == 4

    def test_intervals_well_formed(self):
        res = run_spmd(program, 2, network=flat_network(2), trace=True)
        for e in res.trace:
            assert e.t_end >= e.t_start >= 0.0
            assert e.t_end <= res.simulated_time + 1e-12

    def test_compute_interval_duration(self):
        res = run_spmd(program, 2, network=flat_network(2), trace=True)
        computes = [e for e in res.trace if e.op == "compute"]
        assert all(e.duration == pytest.approx(0.5) for e in computes)

    def test_send_bytes_recorded(self):
        res = run_spmd(program, 2, network=flat_network(2), trace=True)
        send = next(e for e in res.trace if e.op == "send")
        assert send.nbytes == 8

    def test_per_rank_events_are_ordered(self):
        res = run_spmd(program, 2, network=flat_network(2), trace=True)
        for r in (0, 1):
            mine = [e for e in res.trace if e.rank == r]
            starts = [e.t_start for e in mine]
            assert starts == sorted(starts)

    def test_works_without_network(self):
        res = run_spmd(program, 2, trace=True)
        # All events exist, timings are zero-duration except compute.
        assert any(e.op == "allreduce" for e in res.trace)


def _written(ctx, path):
    """Write ``ctx`` through the one Chrome writer; return the records."""
    return json.loads(ctx.write_chrome_trace(path).read_text())["traceEvents"]


def _traced(events):
    ctx = RunContext(trace=True)
    ctx.trace_events.extend(events)
    return ctx


class TestChromeExport:
    def _events(self):
        return [
            TraceEvent(rank=0, op="allreduce", t_start=0.0, t_end=1e-3, nbytes=4096),
            TraceEvent(rank=1, op="compute", t_start=1e-3, t_end=2e-3),
        ]

    def test_records_shape(self, tmp_path):
        records = _written(_traced(self._events()), tmp_path / "t.json")
        slices = [r for r in records if r["ph"] == "X"]
        assert len(slices) == 2
        first = slices[0]
        assert first["name"] == "allreduce"
        assert first["pid"] == 0 and first["tid"] == 0
        assert first["ts"] == pytest.approx(0.0)
        assert first["dur"] == pytest.approx(1000.0)  # 1 ms -> 1000 us
        assert first["args"]["nbytes"] == 4096

    def test_zero_duration_clamped(self, tmp_path):
        ctx = _traced([TraceEvent(rank=0, op="barrier", t_start=1.0, t_end=1.0)])
        records = _written(ctx, tmp_path / "t.json")
        assert [r["dur"] for r in records if r["ph"] == "X"] == [0.001]

    def test_write_file(self, tmp_path):
        records = _written(_traced(self._events()), tmp_path / "sub" / "trace.json")
        # One process name, two rank lanes, two slices.
        assert [r["ph"] for r in records] == ["M", "M", "M", "X", "X"]
        assert [r["args"]["name"] for r in records[:3]] == [
            "simulated world", "rank 0", "rank 1",
        ]

    def test_empty_event_list(self, tmp_path):
        """Zero events is a valid (if boring) trace, not an error."""
        records = _written(RunContext(trace=True), tmp_path / "empty.json")
        assert records == [{"name": "process_name", "ph": "M", "pid": 0,
                            "args": {"name": "simulated world"}}]

    def test_exact_records_of_a_hand_built_context(self, tmp_path):
        """Rank slices (sorted by rank, program order kept), lifecycle
        instants, nested spans with flows, and an open span — record for
        record, key order included."""
        ctx = _traced([
            TraceEvent(rank=1, op="compute", t_start=0.0, t_end=0.5),
            TraceEvent(rank=0, op="alltoall", t_start=0.25, t_end=0.75,
                       nbytes=64, hidden=0.125),
        ])
        ctx.record_event("restart", t=1.0, launch=1)
        ctx.record_event("backoff", t=1.25, seconds=2.0)
        root = ctx.spans.add("request", 0.0, 1.0, kind="request", rid=7)
        child = ctx.spans.add("decode", 0.25, 0.75, parent=root, kind="decode")
        ctx.spans.add("step", 0.5, 0.5, parent=child, kind="step")
        ctx.spans.begin("launch", 1.5, kind="launch")

        def meta(pid, name, tid=None):
            rec = {"name": "thread_name" if tid is not None else "process_name",
                   "ph": "M", "pid": pid}
            if tid is not None:
                rec["tid"] = tid
            return {**rec, "args": {"name": name}}

        def rank_slice(name, ts, dur, tid, **args):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 0,
                    "tid": tid, "args": {"nbytes": 0, **args}}

        def span_slice(name, ts, dur, tid, **args):
            return {"name": name, "cat": name, "ph": "X", "ts": ts, "dur": dur,
                    "pid": 1, "tid": tid, "args": args}

        def flow(cat, span_id, ts_start, ts_finish):
            return [
                {"name": "causality", "cat": cat, "ph": "s", "id": span_id,
                 "ts": ts_start, "pid": 1, "tid": 0},
                {"name": "causality", "cat": cat, "ph": "f", "bp": "e",
                 "id": span_id, "ts": ts_finish, "pid": 1, "tid": 0},
            ]

        expected = [
            meta(0, "simulated world"), meta(0, "rank 0", 0), meta(0, "rank 1", 1),
            rank_slice("alltoall", 250000.0, 500000.0, 0, nbytes=64,
                       hidden_seconds=0.125),
            rank_slice("compute", 0.0, 500000.0, 1),
            {"name": "restart", "ph": "i", "ts": 1e6, "pid": 0, "tid": 0,
             "s": "g", "args": {"launch": 1}},
            {"name": "backoff", "ph": "i", "ts": 1.25e6, "pid": 0, "tid": 0,
             "s": "g", "args": {"seconds": 2.0}},
            meta(1, "spans"), meta(1, "request #0", 0), meta(1, "launch #3", 3),
            span_slice("request", 0.0, 1e6, 0, rid=7),
            span_slice("decode", 250000.0, 500000.0, 0),
            *flow("decode", 1, 0.0, 250000.0),
            span_slice("step", 500000.0, 0.001, 0),
            *flow("step", 2, 250000.0, 500000.0),
            span_slice("launch", 1.5e6, 0.001, 3),
        ]
        path = ctx.write_chrome_trace(tmp_path / "t.json")
        assert path.read_text() == json.dumps({"traceEvents": expected})

    def test_traced_runs_write_identical_bytes(self, tmp_path):
        """Rank threads append to the trace concurrently; the written file
        must not depend on the thread scheduler."""
        from repro.models import tiny_config
        from repro.parallel import TrainingRunConfig, run_distributed_training

        def run(name):
            res = run_distributed_training(TrainingRunConfig(
                tiny_config(num_experts=4), world_size=4, ep_size=2,
                overlap_chunks=2, num_steps=2, trace=True,
            ))
            return res.context.write_chrome_trace(tmp_path / name).read_bytes()

        assert run("a.json") == run("b.json")

    def test_context_guard_when_untraced(self, tmp_path):
        """An untraced context refuses to export and names the fix."""
        ctx = RunContext(trace=False)
        with pytest.raises(ConfigError, match="trace=True"):
            ctx.write_chrome_trace(tmp_path / "never.json")

    def test_absorb_shifts_trace_clock(self):
        """Session aggregation lands absorbed events on the session
        timeline: every timestamp shifted by clock_offset, bytes kept."""
        session = RunContext(trace=True)
        launch = RunContext(trace=True)
        launch.trace_events.extend(self._events())
        session.absorb(launch, clock_offset=10.0)
        assert [e.t_start for e in session.trace_events] == [10.0, 10.0 + 1e-3]
        assert [e.t_end for e in session.trace_events] == [10.0 + 1e-3, 10.0 + 2e-3]
        assert session.trace_events[0].nbytes == 4096
        assert {e.world for e in session.trace_events} == {0}

    def test_absorbed_worlds_get_a_process_each(self, tmp_path):
        """Launches absorbed as different worlds keep their rank lanes apart;
        pid 1 stays the spans process's."""
        session = RunContext(trace=True)
        for world in (0, 2):
            launch = RunContext(trace=True)
            launch.trace_events.extend(self._events())
            session.absorb(launch, world=world)
        records = _written(session, tmp_path / "t.json")
        meta = [(r["pid"], r.get("tid"), r["args"]["name"]) for r in records if r["ph"] == "M"]
        assert meta == [(0, None, "replica 0"), (0, 0, "rank 0"), (0, 1, "rank 1"),
                        (3, None, "replica 2"), (3, 0, "rank 0"), (3, 1, "rank 1")]
        assert [(r["pid"], r["tid"]) for r in records if r["ph"] == "X"] == [
            (0, 0), (0, 1), (3, 0), (3, 1)]
        assert session.trace_events[0].op == "allreduce"

    def test_absorb_into_untraced_session_drops_events(self):
        """An untraced session stays untraced; absorb must not crash."""
        session = RunContext(trace=False)
        launch = RunContext(trace=True)
        launch.trace_events.extend(self._events())
        session.absorb(launch, clock_offset=5.0)
        assert session.trace_events is None

    def test_end_to_end_trace_of_training(self, tmp_path):
        """A full distributed training step produces a coherent trace."""
        from repro.data import ShardedLoader, SyntheticCorpus
        from repro.models import tiny_config
        from repro.parallel import MoDaTrainer, ParallelLayout, build_groups, build_moda_model
        from repro.train import Adam

        cfg = tiny_config(num_experts=4)

        def train(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(cfg, groups, seed=1)
            trainer = MoDaTrainer(model, Adam(model.parameters(), lr=1e-3), groups)
            corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, seed=0)
            loader = ShardedLoader(corpus, 2, 8, dp_rank=comm.rank, dp_size=comm.size)
            trainer.train_step(loader.get_batch(0))

        res = run_spmd(train, 4, network=flat_network(4), trace=True, timeout=300)
        assert len(res.trace) > 20
        ops = {e.op for e in res.trace}
        assert "alltoall" in ops and "allreduce" in ops
        records = _written(res.context, tmp_path / "step.json")
        assert sum(r["ph"] == "X" for r in records) == len(res.trace)
