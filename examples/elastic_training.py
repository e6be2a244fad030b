#!/usr/bin/env python
"""Elastic training: survive a dead node by shrinking the world.

A stochastic fault model (seeded, so this script is deterministic) gives
every node an exponential time-to-failure and marks node 3 as permanently
dead. The recovery supervisor classifies each failure, backs off with a
capped exponential schedule, and — after node 3 fails twice — performs an
elastic restart: it excludes the node, halves the world from 4 to 2
ranks, reshards the experts *and* the optimizer state through the
layout-independent checkpoint format, and resumes.

The shrunken world replays the original schedule with fold-carry
gradient accumulation, so the stitched loss trajectory equals a healthy
full-width run exactly — verified at the end against a fault-free
reference.

Run:  python examples/elastic_training.py
"""

import tempfile
from pathlib import Path

from repro.models import tiny_config
from repro.parallel import TrainingRunConfig, run_distributed_training
from repro.resilience import ElasticRunConfig, Supervisor
from repro.simmpi import FaultModel

CFG = tiny_config(num_experts=4)
STEPS = 8


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        supervisor = Supervisor(
            ElasticRunConfig(
                run=TrainingRunConfig(model=CFG, world_size=4, ep_size=2,
                                      num_steps=STEPS, batch_size=2, seq_len=8,
                                      seed=0),
                checkpoint_every=2, checkpoint_dir=Path(tmp) / "ckpts",
                max_restarts=8,
                # Virtual step times for this tiny model are ~1e-4 s;
                # scale the backoff to the same regime so the goodput
                # number printed below stays meaningful.
                backoff_base=1e-4, backoff_cap=1e-3,
            ),
            faults=FaultModel(seed=0, mtbf=1e-3, dead_nodes=(3,)),
        )
        res = supervisor.run()

        print("session timeline:")
        for event in res.context.events:
            kind = event["kind"]
            extra = ""
            if kind == "failure":
                extra = f"  rank {event['rank']} (node {event['node']})"
            elif kind == "elastic_restart":
                extra = (f"  node {event['node']} excluded after "
                         f"{event['strikes']} strikes")
            elif kind == "reshard":
                extra = (f"  world {event['from_world']} -> {event['to_world']}, "
                         f"ep {event['from_ep']} -> {event['to_ep']}")
            print(f"  t={event['t']:9.4f}s  {kind:<16}{extra}")

        print(f"\nrestarts={res.restarts}  shrinks={res.shrinks}  "
              f"world history {res.world_history}  "
              f"finished at world={res.final_world_size}")
        print(f"lost steps={res.lost_steps}  goodput={res.goodput:.3f}  "
              f"availability={res.availability:.3f}")

        # A healthy full-width run of the same configuration: the elastic
        # session must land on the identical trajectory from wherever it
        # resumed, even though it finished on half the ranks.
        healthy = run_distributed_training(
            TrainingRunConfig(
                model=CFG, world_size=4, ep_size=2, num_steps=STEPS,
                batch_size=2, seq_len=8, seed=0,
            )
        )
        overlap = healthy.losses[res.first_step:]
        assert overlap == res.losses, "trajectories diverged"
        print(f"\n{'step':>5} {'healthy':>9} {'elastic':>9}")
        for i, loss in enumerate(res.losses):
            print(f"{res.first_step + i:5d} {overlap[i]:9.4f} {loss:9.4f}")
        print("\nOK — the elastic session (finishing on 2 of 4 ranks) "
              "matches the healthy run exactly")


if __name__ == "__main__":
    main()
