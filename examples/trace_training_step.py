#!/usr/bin/env python
"""Trace a distributed training step and export a Chrome-tracing JSON.

Runs two MoDa steps on 8 simulated ranks with ``trace=True`` on the run
config; the shared :class:`~repro.simmpi.RunContext` collects the event
stream, traffic counters, and per-phase timers in one place. Prints a
per-operation summary plus the phase breakdown and writes
``trace_step.json`` — open it in Perfetto (https://ui.perfetto.dev) or
chrome://tracing to see the alltoall waves, gradient allreduces, and
modelled compute of every rank on the simulated machine's timeline.

``RunContext.write_chrome_trace`` is the one Chrome writer: one named
``rank N`` lane per rank, plus lifecycle instants and span trees when the
run recorded them. Its output is byte-identical across same-seed runs.
The CLI writes the same file: ``repro distributed --trace out.json``.

Run:  python examples/trace_training_step.py
"""

from collections import defaultdict

from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig, run_distributed_training
from repro.utils import format_time

WORLD, EP = 8, 4
CFG = tiny_config(num_experts=8)


def main() -> None:
    run_cfg = TrainingRunConfig(
        model=CFG,
        world_size=WORLD,
        ep_size=EP,
        num_steps=2,
        batch_size=4,
        seq_len=16,
        trace=True,
    )
    res = run_distributed_training(
        run_cfg, network=sunway_network(WORLD, supernode_size=4)
    )

    by_op: dict[str, list[float]] = defaultdict(list)
    for e in res.trace:
        by_op[e.op].append(e.duration)

    print(f"{len(res.trace)} events over "
          f"{format_time(res.step_time * run_cfg.num_steps)} "
          f"of virtual time ({WORLD} ranks)\n")
    print(f"{'op':<16} {'count':>6} {'total':>12} {'mean':>12}")
    for op, durations in sorted(by_op.items(), key=lambda kv: -sum(kv[1])):
        print(f"{op:<16} {len(durations):>6} "
              f"{format_time(sum(durations)):>12} "
              f"{format_time(sum(durations) / len(durations)):>12}")

    print("\nvirtual time per phase (rank 0):")
    for phase, seconds in res.phase_seconds.items():
        print(f"  {phase:<12} {format_time(seconds)}")

    path = res.context.write_chrome_trace("trace_step.json")
    print(f"\nwrote {path} — open in https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
