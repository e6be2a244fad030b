"""F11 (design space) — how wide should expert-parallel groups be?

Wider EP groups shrink per-node expert memory (more shards) but push the
token alltoall across slower links and shrink the expert-gradient
replica count. BaGuaLu chose machine-wide EP; this sweep shows why: at
brain scale the memory constraint dominates, and the hierarchical
alltoall keeps the communication cost of width nearly flat.
"""

from repro.hardware import SW26010_PRO, sunway_machine
from repro.models import bagualu_14_5t
from repro.network import sunway_network
from repro.perf import ParallelPlan, StepModel, node_memory
from repro.utils import format_bytes, format_time

NODES = 16_384
CFG = bagualu_14_5t()


def test_f11_ep_width_sweep(benchmark, report):
    machine = sunway_machine(NODES)
    sm = StepModel(CFG, machine, sunway_network(NODES))

    def sweep():
        rows = []
        for ep in (256, 1024, 4096, 16_384):
            plan = ParallelPlan(
                num_nodes=NODES, ep_size=ep, micro_batch=8, seq_len=2048,
                zero_shards=64,
            )
            bd = sm.step_breakdown(plan)
            mem = node_memory(CFG, plan)
            rows.append(
                {
                    "ep_width": ep,
                    "expert_replicas": NODES // ep,
                    "alltoall": format_time(bd.alltoall),
                    "expert_allreduce": format_time(bd.expert_allreduce),
                    "step_total": format_time(bd.total),
                    "node_memory": format_bytes(mem.total),
                    "fits_96GiB": mem.total <= SW26010_PRO.memory_bytes,
                    "_mem": mem.total,
                    "_step": bd.total,
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f11_ep_width", f"F11: EP-group width at {NODES:,} nodes (14.5T)", [
        {k: v for k, v in r.items() if not k.startswith("_")} for r in rows
    ])

    # Memory falls monotonically with EP width...
    mems = [r["_mem"] for r in rows]
    assert all(a > b for a, b in zip(mems, mems[1:]))
    # ...and only the widest configurations fit the node budget.
    assert not rows[0]["fits_96GiB"]
    assert rows[-1]["fits_96GiB"]
    # The step-time cost of going machine-wide is modest (<2x vs narrow).
    assert rows[-1]["_step"] < rows[0]["_step"] * 2.0


def test_f11_narrow_ep_needs_more_expert_sync(benchmark, report):
    """Narrow EP pays in expert-gradient allreduce volume: each shard has
    more replicas *and* more parameters per rank."""
    machine = sunway_machine(NODES)
    sm = StepModel(CFG, machine, sunway_network(NODES))

    def measure():
        rows = []
        for ep in (256, 16_384):
            plan = ParallelPlan(num_nodes=NODES, ep_size=ep, micro_batch=8,
                                seq_len=2048)
            bd = sm.step_breakdown(plan)
            rows.append({
                "ep_width": ep,
                "expert_allreduce_s": bd.expert_allreduce,
            })
        return rows

    rows = benchmark(measure)
    report("f11_expert_sync", "F11b: expert-gradient sync vs EP width", rows)
    assert rows[0]["expert_allreduce_s"] > rows[1]["expert_allreduce_s"]
