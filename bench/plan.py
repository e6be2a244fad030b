"""Workload ``plan_sunway`` and the network / hardware / perf / plan probes.

Pure analytic Python: no tensors and no rank threads. One op is a pass —
layout searches on the ``sunway`` preset plus the 14.5T weak-scaling
projection to 96,000 nodes — so a cheaper cost model shows here and a
tensor or simmpi change must not.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t, small_config
from repro.network import sunway_network
from repro.perf import weak_scaling_rows
from repro.perf.memory import node_memory
from repro.perf.plan import ParallelPlan
from repro.perf.stepmodel import StepModel
from repro.plan import PlannerConfig, enumerate_layouts, search_plans

from bench.calibrate import closed_loop, median_seconds
from bench.spans import Tracer, median_seconds_of
from bench.timing import median

FULL_MACHINE = 96_000
SEARCH_NODES = (512, 1024)
PROJECTION_NODES = (256, 1024, 4096, 16384, 49152, FULL_MACHINE)
#: The reduced pass: warms every code path a full pass takes (and is the
#: whole op of ``--quick``) at a fraction of its cost.
SMALL_SEARCH_NODES = (512,)
SMALL_PROJECTION_NODES = (256, 1024)
TRACE_PASSES = 2


def _pass(k: int, load_imbalance: float, tracer: Tracer, search_nodes, projection_nodes):
    """Pass ``k``: searches + projection. Returns (plan results, rows, failures).

    ``seq_len`` cycles with ``k`` so consecutive passes never price
    identical plans; the topology stays the same, so memoisation per group
    shape still counts.
    """
    seq_len = 32 + 8 * (k % 4)
    failures = []
    results = []
    with tracer.span("bench.pass"):
        for nodes in search_nodes:
            with tracer.span(f"plan.search_plans[{nodes}]"):
                result = search_plans(PlannerConfig(
                    model=small_config(num_experts=64), num_nodes=nodes,
                    cluster="sunway", micro_batch=4, seq_len=seq_len,
                    load_imbalance=load_imbalance,
                ))
            results.append(result)
            times = [c.predicted_step_time for c in result.candidates]
            if times != sorted(times):
                failures.append(f"pass {k}: ranking at {nodes} nodes is not ascending")
            elif result.best.predicted_step_time != min(times):
                failures.append(f"pass {k}: best at {nodes} nodes is not the minimum")
        with tracer.span("perf.weak_scaling_rows"):
            rows = weak_scaling_rows(
                bagualu_14_5t(), sunway_machine(FULL_MACHINE), list(projection_nodes),
                ep_size=FULL_MACHINE, micro_batch=8, seq_len=2048, load_imbalance=1.05,
            )
        if not all(math.isfinite(r["step_time_s"]) and r["step_time_s"] > 0 for r in rows):
            failures.append(f"pass {k}: projection has a non-positive step time")
    return results, rows, failures


def run(spec, tracer: Tracer) -> dict:
    # The seed moves the priced workload a little (expert load imbalance
    # 1.00-1.04) without changing how much the planner has to enumerate.
    load_imbalance = 1.0 + 0.04 * float(np.random.default_rng(spec.seed).random())
    small = SMALL_SEARCH_NODES, SMALL_PROJECTION_NODES
    shape = small if spec.quick else (SEARCH_NODES, PROJECTION_NODES)

    # Warm-up pass, discarded. The fixed-length (traced) runs make it a
    # full pass so that ``plan.cold_pass_s`` compares with the warm median.
    t0 = time.perf_counter()
    with tracer.span("bench.setup"):
        _pass(0, load_imbalance, Tracer(spec.workload, enabled=False),
              *(shape if spec.window is None else small))
    cold_s = time.perf_counter() - t0

    kept, failures = [], []

    def one_pass(k: int) -> None:
        results, rows, failed = _pass(k, load_imbalance, tracer, *shape)
        failures.extend(failed)
        if k == 0:
            kept.append((results, rows))

    loop = closed_loop(one_pass, spec.window, 1 if spec.quick else TRACE_PASSES, tracer)
    results, rows = kept[0]
    best = results[-1].best
    enumerated = sum(len(r.candidates) + len(r.rejected) for r in results)
    slow = median(loop["slowness"])
    return dict(
        **loop,
        work_per_op=enumerated + len(rows),
        attempted=len(loop["op_s"]) * (len(results) + 1),
        failures=failures,
        sim={
            "sim_tokens_per_s": best.tokens_per_second,
            "plan.sim_best_step_s": best.predicted_step_time,
            "perf.sim_achieved_eflops": rows[-1]["flops"] / 1e18,
        },
        counts={
            "plan.layouts_enumerated": enumerated,
            "plan.candidates": sum(len(r.candidates) for r in results),
            "plan.rejected": sum(len(r.rejected) for r in results),
            "plan.cold_pass_s": cold_s / loop["slowness"][0],
        },
        span_metrics=_span_metrics(tracer, slow) if tracer.enabled else {},
    )


def _span_metrics(tracer: Tracer, slow: float) -> dict:
    def seconds(name: str) -> float:
        return median_seconds_of(tracer.records, name) / slow

    return {
        "plan.search_512_s": seconds("plan.search_plans[512]"),
        "plan.search_1024_s": seconds("plan.search_plans[1024]"),
        "perf.weak_scaling_s": seconds("perf.weak_scaling_rows"),
    }


def probes(spec, reference_op_s: float) -> dict:
    """network / hardware / perf / plan probes on the 96,000-node preset."""
    calls = 3 if spec.quick else 200
    few = 1 if spec.quick else 3
    network = sunway_network(FULL_MACHINE)
    everyone = range(FULL_MACHINE)
    group = list(range(1024))
    small = small_config(num_experts=64)
    plan_1024 = ParallelPlan(num_nodes=1024, ep_size=64, micro_batch=4, seq_len=32)
    model_1024 = StepModel(small, sunway_machine(1024), sunway_network(1024))
    plan_96k = ParallelPlan(num_nodes=FULL_MACHINE, ep_size=FULL_MACHINE,
                            micro_batch=8, seq_len=2048, load_imbalance=1.05)
    model_96k = StepModel(bagualu_14_5t(), sunway_machine(FULL_MACHINE), network)
    big = 512 if spec.quick else 2048
    return {
        "network.build_ms":
            median_seconds(lambda: sunway_network(FULL_MACHINE), calls) * 1e3,
        "network.span_level_of_us":
            median_seconds(lambda: network.topology.span_level_of(group), calls) * 1e6,
        "network.allreduce_time_us":
            median_seconds(lambda: network.allreduce_time(2**26, everyone), few, 0) * 1e6,
        "network.alltoall_time_us":
            median_seconds(lambda: network.alltoall_time(2**16, everyone), few, 0) * 1e6,
        "hardware.machine_build_us":
            median_seconds(lambda: sunway_machine(FULL_MACHINE), calls) * 1e6,
        "perf.step_breakdown_96k_ms":
            median_seconds(lambda: model_96k.step_breakdown(plan_96k), few, 0) * 1e3,
        "perf.step_time_1024_us":
            median_seconds(lambda: model_1024.step_time(plan_1024), max(calls // 20, 3)) * 1e6,
        "perf.node_memory_us":
            median_seconds(lambda: node_memory(small, plan_1024), calls) * 1e6,
        "plan.enumerate_layouts_ms":
            median_seconds(lambda: enumerate_layouts(big), max(calls // 20, 3)) * 1e3,
        "plan.search_2048_s": median_seconds(lambda: search_plans(PlannerConfig(
            model=small, num_nodes=big, cluster="sunway", micro_batch=4, seq_len=32,
        )), 1, 0),
    }
