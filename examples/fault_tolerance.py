#!/usr/bin/env python
"""Fault-tolerant training: crash, restore, and prove nothing was lost.

Trains the same configuration twice:

1. a healthy run to completion;
2. a run whose rank 1 is killed mid-training by an injected fault — the
   supervisor (fixed-width: ``elastic=False``) restarts the world from the
   last sharded checkpoint and resumes.

Because training is deterministic end to end (derived seeds everywhere),
the recovered trajectory matches the healthy one exactly — printed side by
side below. This is the operational loop that keeps a 96,000-node job
alive.

Run:  python examples/fault_tolerance.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.models import tiny_config
from repro.parallel import TrainingRunConfig
from repro.resilience import ElasticRunConfig, Supervisor
from repro.simmpi import FaultPlan

CFG = tiny_config(num_experts=4)
STEPS = 8


def run(workdir: Path, faults=None):
    return Supervisor(
        ElasticRunConfig(
            run=TrainingRunConfig(model=CFG, world_size=4, ep_size=2,
                                  num_steps=STEPS, batch_size=4, seq_len=8, seed=13),
            checkpoint_every=2, checkpoint_dir=workdir, elastic=False,
        ),
        fault_plans=faults,
    ).run()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        healthy = run(tmp / "healthy")
        print(f"healthy run : {STEPS} steps, {healthy.restarts} restarts, "
              f"checkpoints at {healthy.checkpoint_steps}")

        # Kill rank 1 partway through the first launch.
        faulted = run(
            tmp / "faulted",
            faults=[FaultPlan().kill_rank(1, at_op=100), None],
        )
        print(f"faulted run : killed rank 1, {faulted.restarts} restart(s), "
              f"resumed from step {faulted.first_step}\n")

        print(f"{'step':>5} {'healthy':>9} {'recovered':>10}")
        for i, loss in enumerate(faulted.losses):
            step = faulted.first_step + i
            print(f"{step:5d} {healthy.losses[step]:9.4f} {loss:10.4f}")

        overlap = healthy.losses[faulted.first_step:]
        assert np.allclose(overlap, faulted.losses, atol=1e-6)
        print("\nOK — the recovered trajectory matches the healthy run exactly")


if __name__ == "__main__":
    main()
