"""T7 (extension) — fault tolerance: checkpoint interval vs lost work.

At 96,000 nodes faults are routine; the checkpoint interval trades steady-
state overhead against work lost per failure. This bench crashes a run at
a fixed step under several intervals and reports the recovery point,
verifies the recovered trajectory matches an undisturbed run (both through
the supervisor as plain fixed-width checkpoint-restart, ``elastic=False``),
and sweeps the node MTBF through the elastic supervisor to chart
goodput/availability against failure rate (T7c).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.models import tiny_config
from repro.parallel import TrainingRunConfig
from repro.resilience import ElasticRunConfig, Supervisor
from repro.simmpi import FaultModel, FaultPlan

CFG = tiny_config(num_experts=4)
TOTAL = 8

# Training step (0-based) of the first launch during which T7a kills a rank.
KILL_STEP = 6


def _run(num_steps, seed):
    """The full-width launch every T7 session supervises."""
    return TrainingRunConfig(model=CFG, world_size=4, ep_size=2, num_steps=num_steps,
                             batch_size=2, seq_len=8, seed=seed)


def _restart_cfg(checkpoint_dir, num_steps, checkpoint_every, seed):
    """Plain checkpoint-restart: always relaunch at full width."""
    return ElasticRunConfig(
        run=_run(num_steps, seed), checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, elastic=False,
    )


@dataclass
class _OpCounter(FaultPlan):
    """A plan that kills nothing and counts the operations each rank issues."""

    issued: dict[int, int] = field(default_factory=dict)

    def should_kill(self, rank: int, op_index: int, clock: float = 0.0) -> bool:
        self.issued[rank] = op_index + 1
        return False


def _mid_step_op(make_cfg, rank, step):
    """An op index of ``rank`` inside training step ``step`` of the first launch.

    Halfway between the op counts of healthy sessions of ``step`` and
    ``step + 1`` steps (``make_cfg(num_steps)``), so a kill there lands in
    that step however many operations a step issues.
    """
    issued = []
    for num_steps in (step, step + 1):
        counter = _OpCounter()
        Supervisor(make_cfg(num_steps), fault_plans=[counter]).run()
        issued.append(counter.issued[rank])
    return sum(issued) // 2


def test_t7_interval_vs_lost_work(benchmark, report, tmp_path):
    def measure():
        rows = []
        for interval in (1, 2, 4):
            kill_at = _mid_step_op(
                lambda steps: _restart_cfg(tmp_path / f"count{interval}-{steps}", steps,
                                           interval, seed=7),
                rank=1, step=KILL_STEP,
            )
            cfg = _restart_cfg(tmp_path / f"ival{interval}", TOTAL, interval, seed=7)
            res = Supervisor(
                cfg, fault_plans=[FaultPlan().kill_rank(1, at_op=kill_at), None]
            ).run()
            # Steps recomputed = steps the surviving segment replayed that
            # the crashed attempt had already processed (upper-bounded by
            # the interval).
            rows.append(
                {
                    "checkpoint_every": interval,
                    "restarts": res.restarts,
                    "resume_step": res.first_step,
                    "checkpoints_written": len(res.checkpoint_steps),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("t7_resilience", "T7: checkpoint interval vs recovery point", rows)

    assert all(r["restarts"] == 1 for r in rows)
    # Tighter intervals resume later (less lost work), at the cost of more
    # checkpoint writes.
    resume = [r["resume_step"] for r in rows]
    writes = [r["checkpoints_written"] for r in rows]
    assert resume[0] >= resume[-1]
    assert writes[0] > writes[-1]


def test_t7_recovery_is_exact(benchmark, report, tmp_path):
    """Crash+restore reproduces the healthy trajectory bit-for-bit."""

    def measure():
        healthy = Supervisor(_restart_cfg(tmp_path / "healthy", 6, 2, seed=9)).run()
        kill_at = _mid_step_op(
            lambda steps: _restart_cfg(tmp_path / f"count{steps}", steps, 2, seed=9),
            rank=2, step=4,
        )
        faulted = Supervisor(
            _restart_cfg(tmp_path / "faulted", 6, 2, seed=9),
            fault_plans=[FaultPlan().kill_rank(2, at_op=kill_at), None],
        ).run()
        overlap = healthy.losses[faulted.first_step:]
        worst = float(np.abs(np.array(overlap) - np.array(faulted.losses)).max())
        return [
            {
                "restarts": faulted.restarts,
                "resumed_at_step": faulted.first_step,
                "max_loss_difference": worst,
            }
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("t7_exactness", "T7b: recovered vs healthy trajectory", rows)
    assert rows[0]["restarts"] == 1
    assert rows[0]["max_loss_difference"] < 1e-6


def test_t7_goodput_vs_mtbf(benchmark, report, tmp_path):
    """Sweep node MTBF through the elastic supervisor.

    Virtual step times for the tiny model are ~1e-4 s, so the MTBF grid
    spans "a failure every step or two" up to "effectively healthy"; the
    backoff base is scaled to the same regime. Goodput (surviving
    step-work per session second) should recover toward 1.0 as the
    machine gets healthier.
    """

    def sweep():
        rows = []
        for mtbf in (3e-4, 1e-3, 1e-2, None):
            cfg = ElasticRunConfig(
                run=_run(TOTAL, seed=0), checkpoint_every=2,
                checkpoint_dir=tmp_path / f"mtbf{mtbf or 'inf'}",
                max_restarts=30, backoff_base=1e-4, backoff_cap=1e-3,
            )
            res = Supervisor(
                cfg, faults=FaultModel(seed=1, mtbf=mtbf) if mtbf else None
            ).run()
            rows.append(
                {
                    "mtbf_s": mtbf if mtbf is not None else float("inf"),
                    "restarts": res.restarts,
                    "shrinks": res.shrinks,
                    "final_world": res.final_world_size,
                    "lost_steps": res.lost_steps,
                    "goodput": res.goodput,
                    "availability": res.availability,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("t7_goodput", "T7c: goodput vs node MTBF (elastic supervisor)", rows)

    goodput = [r["goodput"] for r in rows]
    assert goodput[-1] == 1.0  # healthy machine: no overhead at all
    assert goodput == sorted(goodput)  # healthier machine, better goodput
    assert rows[0]["restarts"] > 0  # failure-dominated regime really failed
