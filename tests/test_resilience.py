"""Elastic fault-tolerant training: fault models, supervisor, resharding.

The load-bearing claims tested here:

* :class:`~repro.simmpi.FaultModel` is seeded and exactly reproducible —
  MTBF crash times and straggler slowdowns all derive from
  (seed, launch_index, node);
* the :class:`~repro.resilience.Supervisor` only retries modelled
  failures (programming errors propagate), backs off exponentially, and
  shrinks the world around a repeat-offender node;
* a shrunken world reproduces the healthy full-world loss trajectory
  **bitwise** from the restored step onward (the fold-carry elastic
  driver), including optimizer state restored mid-run;
* a snapshot whose shard files were lost after the save is rejected and
  recovery falls back to the previous one.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import (
    CommunicatorError,
    ConfigError,
    DeadlockError,
    FaultInjected,
    OverflowDetected,
    ReproError,
)
from repro.models import tiny_config
from repro.parallel.dist_checkpoint import latest_snapshot, verify_snapshot
from repro.parallel.runner import TrainingRunConfig, run_distributed_training
from repro.resilience import (
    ElasticRunConfig,
    ElasticStepDriver,
    Supervisor,
    classify_failure,
)
from repro.simmpi import FaultModel, FaultPlan, run_spmd
from repro.train.metrics import MetricsLogger, read_jsonl

CFG = tiny_config()
STEPS = 6


@pytest.fixture(scope="module")
def healthy_losses():
    """Reference trajectory: plain runner, world 4, ep 2."""
    res = run_distributed_training(
        TrainingRunConfig(
            model=CFG, world_size=4, ep_size=2, num_steps=STEPS,
            batch_size=2, seq_len=8, seed=0,
        )
    )
    return res.losses


RUN_FIELDS = {f.name for f in dataclasses.fields(TrainingRunConfig)}


def make_cfg(tmp_path, **overrides) -> ElasticRunConfig:
    """The supervised world-4 ep-2 session; an override of a
    ``TrainingRunConfig`` field goes to its full-width run."""
    run = dict(model=CFG, world_size=4, ep_size=2, num_steps=STEPS,
               batch_size=2, seq_len=8, seed=0)
    policy = dict(checkpoint_every=2, checkpoint_dir=tmp_path / "ckpt", max_restarts=8)
    for name, value in overrides.items():
        (run if name in RUN_FIELDS else policy)[name] = value
    return ElasticRunConfig(run=TrainingRunConfig(**run), **policy)


# ---------------------------------------------------------------------- #
# FaultModel
# ---------------------------------------------------------------------- #


class TestFaultModel:
    def test_mtbf_draws_are_deterministic(self):
        probes = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]
        a = FaultModel(seed=5, mtbf=0.01)
        b = FaultModel(seed=5, mtbf=0.01)
        a.on_launch(4)
        b.on_launch(4)
        for rank in range(4):
            for t in probes:
                assert a.should_kill(rank, 0, clock=t) == b.should_kill(
                    rank, 0, clock=t
                )

    def test_mtbf_redrawn_per_launch(self):
        fm = FaultModel(seed=3, mtbf=1.0)
        draws = []
        for _ in range(4):
            fm.on_launch(2)
            draws.append(
                tuple(
                    min(t for t in np.linspace(0.01, 10, 500)
                        if fm.should_kill(r, 0, clock=t))
                    for r in range(2)
                )
            )
        assert len(set(draws)) > 1, "failure times never changed across launches"

    def test_dead_node_kills_with_rank_attributed(self):
        with pytest.raises(FaultInjected) as exc_info:
            run_spmd(
                lambda comm: comm.allreduce(1),
                4,
                faults=FaultModel(seed=0, dead_nodes=(1,)),
            )
        assert exc_info.value.rank == 1
        # The engine ferries partial observations for goodput accounting.
        assert hasattr(exc_info.value, "partial_clocks")

    def test_exclusion_remaps_ranks_around_dead_node(self):
        fm = FaultModel(seed=0, dead_nodes=(1,))
        fm.exclude_node(1)
        res = run_spmd(lambda comm: comm.allreduce(1), 2, faults=fm)
        assert res.returns == [2, 2]
        assert [fm.node_of_rank(r) for r in range(2)] == [0, 2]

    def test_straggler_scales_virtual_clock(self):
        def program(comm):
            comm.advance(1.0)
            return comm.clock

        fm = FaultModel(seed=0, stragglers={1: 5.0})
        res = run_spmd(program, 2, faults=fm)
        assert res.returns[0] == pytest.approx(1.0)
        assert res.returns[1] == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultModel(mtbf=0.0)
        with pytest.raises(ConfigError):
            FaultModel(stragglers={0: 0.5})
        with pytest.raises(ConfigError):
            FaultModel().node_of_rank(0)


# ---------------------------------------------------------------------- #
# Failure classification
# ---------------------------------------------------------------------- #


class TestClassification:
    def test_classify_failure_names(self):
        assert classify_failure(FaultInjected("x", rank=1)) == "fault"
        assert classify_failure(DeadlockError("x")) == "deadlock"
        assert classify_failure(OverflowDetected("x")) == "overflow"
        assert classify_failure(CommunicatorError("x")) == "CommunicatorError"

    def test_programming_error_propagates(self, tmp_path):
        """A TypeError inside the rank program must never trigger a restart."""

        class BrokenPlan(FaultPlan):
            def should_kill(self, rank, op_index, clock=0.0):
                raise TypeError("bug, not a hardware fault")

        with pytest.raises(TypeError, match="bug, not a hardware fault"):
            Supervisor(make_cfg(tmp_path), fault_plans=[BrokenPlan()]).run()

    def test_config_error_in_a_launch_propagates(self, tmp_path):
        """A launch that refuses its config is not a fault: the parent
        retried it until ``training failed 9 times; giving up``."""

        class RefusingPlan(FaultPlan):
            def should_kill(self, rank, op_index, clock=0.0):
                raise ConfigError("a config no relaunch can fix")

        with pytest.raises(ConfigError, match="no relaunch can fix"):
            Supervisor(make_cfg(tmp_path), fault_plans=[RefusingPlan()]).run()

    def test_gives_up_after_max_restarts(self, tmp_path):
        cfg = make_cfg(tmp_path, elastic=False, max_restarts=2)
        fm = FaultModel(seed=0, dead_nodes=(3,))
        with pytest.raises(CommunicatorError, match="giving up"):
            Supervisor(cfg, faults=fm).run()


# ---------------------------------------------------------------------- #
# Supervisor: healthy + scripted recovery
# ---------------------------------------------------------------------- #


class TestSupervisor:
    def test_healthy_run_matches_plain_runner_bitwise(self, tmp_path, healthy_losses):
        res = Supervisor(make_cfg(tmp_path)).run()
        assert res.losses == healthy_losses
        assert res.restarts == 0 and res.shrinks == 0
        assert res.goodput == 1.0 and res.availability == 1.0
        assert [e["kind"] for e in res.context.events] == ["launch", "complete"]
        assert res.checkpoint_steps == [2, 4, 6]
        ckpt_dir = tmp_path / "ckpt"
        assert (ckpt_dir / "step-000002" / "meta.json").exists()
        assert (ckpt_dir / "step-000006" / "dense.npz").exists()

    def test_scripted_midrun_crash_resumes_exactly(self, tmp_path, healthy_losses):
        """Optimizer state + params restored mid-run reproduce the healthy
        trajectory bitwise; the redone step counts as lost work."""
        plan = FaultPlan().kill_rank(2, at_op=60)
        res = Supervisor(make_cfg(tmp_path), fault_plans=[plan, None]).run()
        assert res.restarts == 1
        assert res.first_step == 2
        assert res.losses == healthy_losses[res.first_step:]
        assert res.lost_steps == 1  # step 3 completed, then died before ckpt 4
        assert res.lost_time > 0.0
        failure = res.context.events_of("failure")[0]
        assert failure["failure"] == "fault" and failure["rank"] == 2

    def test_two_consecutive_scripted_failures(self, tmp_path, healthy_losses):
        """Plain checkpoint-restart (``elastic=False``): every launch in
        the script dies, the next resumes from the newest snapshot."""
        plans = [FaultPlan().kill_rank(1, at_op=60),
                 FaultPlan().kill_rank(1, at_op=60), None]
        res = Supervisor(make_cfg(tmp_path, elastic=False), fault_plans=plans).run()
        assert res.restarts == 2 and res.shrinks == 0
        assert res.world_history == [4, 4, 4]
        assert res.first_step + len(res.losses) == STEPS
        assert res.losses == healthy_losses[res.first_step:]

    def test_crash_before_first_checkpoint_restarts_from_scratch(
        self, tmp_path, healthy_losses
    ):
        plan = FaultPlan().kill_rank(1, at_op=5)
        res = Supervisor(
            make_cfg(tmp_path, elastic=False), fault_plans=[plan, None]
        ).run()
        assert res.restarts == 1
        assert res.first_step == 0
        assert res.losses == healthy_losses  # the retry covers every step

    def test_backoff_grows_and_caps(self, tmp_path):
        cfg = make_cfg(
            tmp_path, elastic=False, max_restarts=4,
            backoff_base=2.0, backoff_cap=5.0,
        )
        plans = [FaultPlan().kill_rank(0, at_op=0) for _ in range(3)] + [None]
        res = Supervisor(cfg, fault_plans=plans).run()
        waits = [e["seconds"] for e in res.context.events_of("backoff")]
        assert waits == [2.0, 4.0, 5.0]  # 2, 2*2, capped at 5
        assert res.backoff_time == pytest.approx(11.0)
        assert res.context.phase_seconds["backoff"] == pytest.approx(11.0)

    @pytest.mark.parametrize(
        "bad", [{"num_steps": 0}, {"checkpoint_every": 0}, {"max_restarts": -1}]
    )
    def test_config_rejects_invalid_schedule(self, tmp_path, bad):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, **bad)


# ---------------------------------------------------------------------- #
# Shrink targets: a world the fold-carry driver can replay
# ---------------------------------------------------------------------- #


class TestShrinkTarget:
    def test_every_shrink_divides_the_logical_world(self, tmp_path):
        """Worlds 1-64 at every EP width the model allows: each step of the
        shrink chain lands on the largest divisor of the logical world that
        is at most half the current one, and its EP divides that world and
        the expert count. The parent halved (5 -> 2, 18 -> 9 -> 4)."""
        for logical in range(1, 65):
            for ep in (e for e in (1, 2, 4) if logical % e == 0):
                sup = Supervisor(make_cfg(tmp_path, world_size=logical, ep_size=ep))
                world = logical
                while world > 1:
                    new_world, new_ep = sup._shrunk(world, ep)
                    assert logical % new_world == 0 and 1 <= new_world <= world // 2
                    larger = range(new_world + 1, world // 2 + 1)
                    assert not any(logical % d == 0 for d in larger), (logical, world)
                    assert new_world % new_ep == 0 and CFG.num_experts % new_ep == 0
                    if world & (world - 1) == 0:
                        assert new_world == world // 2  # powers of two halve, as before
                    world, ep = new_world, new_ep
                assert sup._shrunk(1, 1)[0] == 0  # nothing below one rank

    def test_odd_world_shrinks_to_one_rank_with_the_healthy_losses(self, tmp_path):
        """World 5 loses node 1 and finishes on one rank by fold-carry
        (k = 5). The parent shrank to world 2, which cannot replay world 5,
        and retried the resulting ConfigError until it gave up."""
        healthy = run_distributed_training(
            TrainingRunConfig(model=CFG, world_size=5, ep_size=1, num_steps=4,
                              batch_size=2, seq_len=8, seed=0)
        ).losses
        res = Supervisor(
            make_cfg(tmp_path, world_size=5, ep_size=1, num_steps=4, shrink_after=1),
            faults=FaultModel(seed=0, dead_nodes=(1,)),
        ).run()
        assert res.world_history == [5, 1]
        assert res.shrinks == 1 and res.restarts == 1
        assert res.losses == healthy


# ---------------------------------------------------------------------- #
# The acceptance scenario: stochastic faults + permanent dead node
# ---------------------------------------------------------------------- #


class TestElasticAcceptance:
    def _run(self, tmp_path):
        fm = FaultModel(seed=0, mtbf=1e-3, dead_nodes=(3,))
        return Supervisor(make_cfg(tmp_path), faults=fm).run()

    def test_shrink_and_reshard_reproduces_trajectory(self, tmp_path, healthy_losses):
        res = self._run(tmp_path)
        # The world shrank around the dead node and finished on 2 ranks.
        assert res.shrinks == 1
        assert res.final_world_size == 2
        assert res.world_history[0] == 4 and res.world_history[-1] == 2
        # Bitwise equality with the healthy 4-rank run from the restored step.
        assert res.first_step > 0
        assert res.losses == healthy_losses[res.first_step:]
        # Both the permanent node and MTBF crashes contributed failures.
        failures = res.context.events_of("failure")
        assert any(e["node"] == 3 for e in failures)
        assert any(e["node"] != 3 for e in failures)

    def test_recovery_events_in_context(self, tmp_path):
        res = self._run(tmp_path)
        kinds = {e["kind"] for e in res.context.events}
        assert {"launch", "failure", "backoff", "elastic_restart",
                "reshard", "complete"} <= kinds
        reshard = res.context.events_of("reshard")[0]
        assert (reshard["from_world"], reshard["to_world"]) == (4, 2)
        assert reshard["microsteps"] == 2
        restart = res.context.events_of("elastic_restart")[0]
        assert restart["node"] == 3 and restart["strikes"] >= 2

    def test_session_is_deterministic(self, tmp_path):
        a = self._run(tmp_path / "a")
        b = self._run(tmp_path / "b")
        assert a.losses == b.losses
        assert a.restarts == b.restarts and a.shrinks == b.shrinks
        assert a.world_history == b.world_history
        assert a.total_time == b.total_time
        assert [e["kind"] for e in a.context.events] == [
            e["kind"] for e in b.context.events
        ]

    def test_goodput_accounting_closes(self, tmp_path):
        res = self._run(tmp_path)
        assert res.total_time == pytest.approx(
            res.useful_time + res.lost_time + res.backoff_time
        )
        assert 0.0 < res.goodput < 1.0
        assert 0.0 < res.availability < 1.0
        assert res.backoff_time > 0.0

    def test_trace_carries_recovery_events(self, tmp_path):
        fm = FaultModel(seed=0, mtbf=1e-3, dead_nodes=(3,))
        res = Supervisor(make_cfg(tmp_path, trace=True), faults=fm).run()
        ops = {e.op for e in res.context.trace_events}
        assert any(op.startswith("allreduce") for op in ops)
        # Each recovery event is one Chrome instant, not a rank slice too.
        path = res.context.write_chrome_trace(tmp_path / "trace.json")
        records = json.loads(path.read_text())["traceEvents"]
        instants = [r["name"] for r in records if r["ph"] == "i"]
        assert instants == [e["kind"] for e in res.context.events]
        assert {"elastic_restart", "reshard"} <= set(instants)
        assert not any(r["name"].startswith("event:") for r in records)

    def test_metrics_record_and_log_events(self, tmp_path):
        res = self._run(tmp_path)
        record = res.metrics_record()
        assert record["events_reshard"] == 1
        assert record["events_launch"] == len(res.world_history)
        assert 0.0 < record["goodput"] < 1.0
        path = tmp_path / "events.jsonl"
        with MetricsLogger(path) as logger:
            n = logger.log_events(res.context.events, session="acceptance")
        rows = read_jsonl(path)
        assert len(rows) == n == len(res.context.events)
        assert all(r["session"] == "acceptance" for r in rows)
        with MetricsLogger(tmp_path / "events.csv") as logger:
            with pytest.raises(ConfigError):
                logger.log_events(res.context.events)


class TestElasticTelemetry:
    """At k = 2 microsteps the step's loads are the *last* microstep's, read
    once at the step end; these are the values the driver gave when each
    MoE forward allreduced its own load."""

    IMBALANCE = [1.09375, 1.28125, 1.1875]
    #: (step, layer, loads): each row sums to one microstep's 2 ranks x 16 tokens x top-2.
    ROUTER = [
        (0, 0, [17.0, 12.0, 17.0, 18.0]), (0, 1, [17.0, 19.0, 18.0, 10.0]),
        (1, 0, [18.0, 14.0, 19.0, 13.0]), (1, 1, [23.0, 17.0, 17.0, 7.0]),
        (2, 0, [14.0, 15.0, 17.0, 18.0]), (2, 1, [24.0, 19.0, 12.0, 9.0]),
    ]

    def test_imbalance_and_router_samples_of_the_last_microstep(self):
        def program(comm, cfg):
            plane = cfg.resolve_strategy().build(comm, cfg, None)
            driver = ElasticStepDriver(plane, 4, 2, cfg)
            return [driver.train_step(step).imbalance for step in range(3)]

        cfg = TrainingRunConfig(model=tiny_config(num_experts=4, top_k=2), world_size=2,
                                ep_size=2, batch_size=2, seq_len=8, seed=0)
        res = run_spmd(program, 2, args=(cfg,), observe=True)
        assert res.returns == [self.IMBALANCE] * 2
        samples = [(r["step"], r["layer"], r["loads"]) for r in res.context.router.records()]
        assert samples == self.ROUTER


# ---------------------------------------------------------------------- #
# Snapshot verification under recovery
# ---------------------------------------------------------------------- #


class TestLatestSnapshot:
    def test_empty_dir(self, tmp_path):
        assert latest_snapshot(tmp_path) == (None, 0)

    def test_picks_highest_complete(self, tmp_path):
        for step in (2, 4):
            d = tmp_path / f"step-{step:06d}"
            d.mkdir(parents=True)
            (d / "meta.json").write_text("{}")
        # A partial (crashed) save without meta.json must be ignored.
        (tmp_path / "step-000006").mkdir()
        path, step = latest_snapshot(tmp_path)
        assert step == 4
        assert path.name == "step-000004"

    def test_ignores_malformed_names(self, tmp_path):
        d = tmp_path / "step-xyz"
        d.mkdir()
        (d / "meta.json").write_text("{}")
        assert latest_snapshot(tmp_path) == (None, 0)


class TestSnapshotFallback:
    def _seed_snapshots(self, tmp_path):
        """A healthy run leaves verified snapshots at steps 2, 4 and 6."""
        res = Supervisor(make_cfg(tmp_path)).run()
        assert res.checkpoint_steps == [2, 4, 6]
        return tmp_path / "ckpt"

    def test_deleted_expert_shard_disqualifies_snapshot(
        self, tmp_path, healthy_losses
    ):
        ckpt_dir = self._seed_snapshots(tmp_path)
        (ckpt_dir / "step-000006" / "experts_0of2.npz").unlink()
        with pytest.raises(Exception, match="missing shard"):
            verify_snapshot(ckpt_dir / "step-000006")
        path, step = latest_snapshot(ckpt_dir)
        assert step == 4 and path.name == "step-000004"
        # Recovery resumes from the surviving snapshot and reproduces the
        # healthy tail exactly.
        res = Supervisor(make_cfg(tmp_path, num_steps=STEPS)).run()
        assert res.first_step == 4
        assert res.losses == healthy_losses[4:]

    def test_truncated_shard_disqualifies_snapshot(self, tmp_path):
        ckpt_dir = self._seed_snapshots(tmp_path)
        shard = ckpt_dir / "step-000006" / "optim_experts_1of2.npz"
        shard.write_bytes(shard.read_bytes()[:20])
        with pytest.raises(Exception, match="truncated or corrupt"):
            verify_snapshot(ckpt_dir / "step-000006")
        _, step = latest_snapshot(ckpt_dir)
        assert step == 4
