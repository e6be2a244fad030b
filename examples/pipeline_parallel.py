#!/usr/bin/env python
"""Pipeline-parallel training (GPipe): the layout selects the pipeline strategy.

Splits a 4-layer MoE transformer into 2 stages across 2 simulated ranks
and trains with 4 microbatches per step — the third parallel axis beyond
the paper's MoDa (data x expert). Setting ``pp_size=2`` on the run config
is all it takes: the layout is the ``pipeline`` strategy, stage
boundaries exchange activations/gradients point-to-point, and the classic
pipeline *bubble* shows up directly in the virtual-clock timing.

Run:  python examples/pipeline_parallel.py
"""

from repro.models import tiny_config
from repro.network import flat_network
from repro.parallel import (
    TrainingRunConfig,
    pipeline_bubble_fraction,
    run_distributed_training,
)
from repro.utils import format_time

STAGES = 2
MICROBATCHES = 4
STEPS = 10
CFG = tiny_config(n_layers=4)


def main() -> None:
    print(f"GPipe: {CFG.n_layers} layers over {STAGES} stages, "
          f"{MICROBATCHES} microbatches "
          f"(bubble {pipeline_bubble_fraction(STAGES, MICROBATCHES):.0%})")

    run_cfg = TrainingRunConfig(
        model=CFG,
        world_size=STAGES,
        pp_size=STAGES,
        num_microbatches=MICROBATCHES,
        num_steps=STEPS,
        batch_size=8,
        seq_len=16,
        lr=3e-3,
        corpus_predictability=0.9,
    )
    print(f"layout  : {run_cfg.layout.describe()}")
    print(f"strategy: {run_cfg.resolve_strategy().name!r}")
    res = run_distributed_training(run_cfg, network=flat_network(STAGES))

    print("loss per step:", " ".join(f"{v:.3f}" for v in res.losses))
    print(f"simulated step time: {format_time(res.step_time)} "
          f"({res.traffic['p2p_messages']} boundary messages)")
    print("virtual time per phase (rank 0):")
    for phase, seconds in res.phase_seconds.items():
        print(f"  {phase:<12} {format_time(seconds)}")

    assert res.losses[-1] < res.losses[0]
    assert res.traffic["p2p_messages"] > 0
    print("OK — stages agree and the loss decreased")


if __name__ == "__main__":
    main()
