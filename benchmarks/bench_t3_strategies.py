"""T3 — parallel strategy comparison: pure DP vs flat EP vs MoDa.

Paper claim: the MoDa hybrid (experts sharded inside supernodes,
hierarchical collectives, data parallelism everywhere) beats both
single-axis strategies. Every measured row's layout selects its strategy
(the row asserts the name it expects), so the comparison exercises the
same dispatch path the CLI uses; per-phase timings come from the
shared RunContext. Projected rows use the analytic step model. Pure DP
is also memory-infeasible at brain scale (see T4), so its row at
96,000 nodes is hypothetical-compute-only.
"""

import numpy as np

from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t, tiny_config
from repro.network import sunway_network
from repro.obs import profile_comm
from repro.parallel import TrainingRunConfig, run_distributed_training
from repro.perf import ParallelPlan, StepModel
from repro.utils import format_time

CFG = tiny_config(num_experts=16)
NET = sunway_network(16, supernode_size=4)


def _measure(strategy, ep_size, alltoall, allreduce):
    res = run_distributed_training(
        TrainingRunConfig(
            model=CFG, world_size=16, ep_size=ep_size, num_steps=3,
            batch_size=2, seq_len=8,
            alltoall_algorithm=alltoall, allreduce_algorithm=allreduce,
            model_compute_time=False,  # isolate communication differences
            trace=True,    # timed per-(op, rank) comm records
            observe=True,  # router telemetry for the load table
        ),
        network=NET,
    )
    assert res.meta["strategy"] == strategy
    return res


def test_t3_measured_strategy_comparison(benchmark, report):
    def run():
        strategies = [
            ("pure-DP (ep=1)", "dp", 1, None, "ring"),
            ("flat-EP (ep=16, flat a2a)", "ep", 16, "flat", "ring"),
            ("MoDa (ep=4, hierarchical)", "moda", 4, "hierarchical", "hierarchical"),
        ]
        rows = []
        losses = {}
        comm_rows = []
        router_rows = []
        for label, name, ep, a2a, ar in strategies:
            res = _measure(name, ep, a2a, ar)
            losses[label] = res.losses
            rows.append(
                {
                    "strategy": label,
                    "registry_name": name,
                    "comm_time_per_step": format_time(res.step_time),
                    "seconds": res.step_time,
                    "grad_sync_s": round(res.phase_seconds.get("grad_sync", 0.0), 6),
                    "total_bytes": res.traffic["total_bytes"],
                }
            )
            for rec in profile_comm(res.context, network=NET).per_op():
                comm_rows.append(
                    {
                        "strategy": name,
                        "op": rec.op,
                        "calls": rec.calls,
                        "nbytes": rec.nbytes,
                        "seconds": rec.seconds,
                        "utilization": (
                            0.0 if rec.utilization is None else rec.utilization
                        ),
                    }
                )
            for row in res.context.router.layer_summary():
                router_rows.append({"strategy": name, **row})
        return rows, losses, comm_rows, router_rows

    rows, losses, comm_rows, router_rows = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report("t3_measured", "T3a: measured per-step communication time (16 ranks)", rows)
    report("t3_comm", "T3a: per-op comm profile (cost-model utilization)", comm_rows)
    report("t3_router", "T3a: router load per MoE layer", router_rows)

    by = {r["strategy"]: r["seconds"] for r in rows}
    moda = by["MoDa (ep=4, hierarchical)"]
    # Shape: MoDa beats flat EP; all strategies compute identical losses.
    assert moda < by["flat-EP (ep=16, flat a2a)"]
    vals = list(losses.values())
    for v in vals[1:]:
        assert np.allclose(v, vals[0], atol=1e-4)


def test_t3_projected_full_machine(benchmark, report):
    cfg = bagualu_14_5t()
    machine = sunway_machine(96_000)
    net = sunway_network(96_000)

    def run():
        sm = StepModel(cfg, machine, net)
        rows = []
        for label, kw in [
            ("flat-EP", dict(alltoall="flat", allreduce="ring")),
            ("MoDa (hierarchical)", dict(alltoall="hierarchical", allreduce="hierarchical")),
            ("MoDa (auto)", dict()),
        ]:
            plan = ParallelPlan(
                num_nodes=96_000, ep_size=96_000, micro_batch=8, seq_len=2048,
                load_imbalance=1.05, **kw,
            )
            bd = sm.step_breakdown(plan)
            rows.append(
                {
                    "strategy": label,
                    "alltoall": format_time(bd.alltoall),
                    "dense_allreduce": format_time(bd.dense_allreduce),
                    "step_total": format_time(bd.total),
                    "seconds": bd.total,
                }
            )
        return rows

    rows = benchmark(run)
    report("t3_projected", "T3b: projected strategies at 96,000 nodes (14.5T)", rows)

    by = {r["strategy"]: r["seconds"] for r in rows}
    assert by["MoDa (hierarchical)"] < by["flat-EP"]
    assert by["MoDa (auto)"] <= by["MoDa (hierarchical)"] + 1e-9
