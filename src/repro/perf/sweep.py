"""Scaling-sweep drivers that produce paper-style result rows."""

from __future__ import annotations

from typing import Sequence

from repro.hardware.specs import MachineSpec
from repro.models.configs import ModelConfig
from repro.network.presets import cluster_preset
from repro.perf.flops import step_flops
from repro.perf.plan import ParallelPlan
from repro.perf.stepmodel import StepModel

__all__ = ["weak_scaling_rows", "strong_scaling_rows"]


def weak_scaling_rows(
    config: ModelConfig,
    machine: MachineSpec,
    node_counts: Sequence[int],
    ep_size: int,
    micro_batch: int = 1,
    seq_len: int | None = None,
    load_imbalance: float = 1.0,
) -> list[dict[str, float]]:
    """Fixed per-node load, growing node count (experiment F1).

    Returns one row per node count: step time, throughput, achieved
    FLOP/s, and parallel efficiency relative to the smallest run, on the
    shared ``"sunway"`` entry of :data:`~repro.network.CLUSTER_PRESETS`.
    """
    network_builder = cluster_preset("sunway").network
    seq = seq_len or config.max_seq_len
    rows: list[dict[str, float]] = []
    base_rate = None
    for n in node_counts:
        plan = ParallelPlan(
            num_nodes=n,
            ep_size=min(ep_size, n),
            micro_batch=micro_batch,
            seq_len=seq,
            load_imbalance=load_imbalance,
        )
        model = StepModel(config, machine.with_nodes(n), network_builder(n))
        t = model.step_time(plan)
        tput = plan.global_tokens / t
        per_node = tput / n
        if base_rate is None:
            base_rate = per_node
        rows.append(
            {
                "nodes": float(n),
                "cores": float(n * machine.node.cores),
                "step_time_s": t,
                "tokens_per_s": tput,
                "flops": step_flops(config, plan.global_tokens, seq) / t,
                "efficiency": per_node / base_rate,
            }
        )
    return rows


def strong_scaling_rows(
    config: ModelConfig,
    machine: MachineSpec,
    node_counts: Sequence[int],
    ep_size: int,
    global_batch_tokens: int,
    seq_len: int | None = None,
) -> list[dict[str, float]]:
    """Fixed global problem size, growing node count (experiment F2), on
    the shared ``"sunway"`` cluster preset."""
    network_builder = cluster_preset("sunway").network
    seq = seq_len or config.max_seq_len
    rows: list[dict[str, float]] = []
    base_time = None
    for n in node_counts:
        per_rank_tokens = max(global_batch_tokens // n, seq)
        micro_batch = max(per_rank_tokens // seq, 1)
        plan = ParallelPlan(
            num_nodes=n,
            ep_size=min(ep_size, n),
            micro_batch=micro_batch,
            seq_len=seq,
        )
        model = StepModel(config, machine.with_nodes(n), network_builder(n))
        t = model.step_time(plan)
        if base_time is None:
            base_time = t * n  # node-seconds of the smallest run
        rows.append(
            {
                "nodes": float(n),
                "step_time_s": t,
                "speedup_vs_linear": (base_time / n) / t,
                "tokens_per_s": plan.global_tokens / t,
            }
        )
    return rows
