"""T4 — per-node memory under MoDa vs replication, with ZeRO sharding.

Paper claim: brain-scale models only fit because experts are sharded
across the machine (replication would need ~30 TB/node against a 96 GiB
budget) and optimizer state is the next wall, addressed by sharding it
across data-parallel peers (ZeRO-1).
"""

from repro.hardware import SW26010_PRO
from repro.models import BRAIN_SCALE_CONFIGS, bagualu_14_5t
from repro.perf import ParallelPlan, node_memory
from repro.utils import format_bytes

NODES = 96_000
NODE_BUDGET = SW26010_PRO.memory_bytes


def test_t4_memory_breakdown(benchmark, report):
    cfg = bagualu_14_5t()
    plan = ParallelPlan(num_nodes=NODES, ep_size=NODES, micro_batch=1, seq_len=2048)

    def rows():
        out = []
        for label, replicate, zero in [
            ("replicated experts", True, 1),
            ("MoDa sharded", False, 1),
            ("MoDa + ZeRO-8", False, 8),
            ("MoDa + ZeRO-64", False, 64),
        ]:
            p = ParallelPlan(
                num_nodes=NODES, ep_size=NODES, micro_batch=1, seq_len=2048,
                zero_shards=zero,
            )
            mem = node_memory(cfg, p, replicate_experts=replicate)
            out.append(
                {
                    "layout": label,
                    "params": format_bytes(mem.params),
                    "grads": format_bytes(mem.gradients),
                    "optimizer": format_bytes(mem.optimizer_state),
                    "activations": format_bytes(mem.activations),
                    "total": format_bytes(mem.total),
                    "fits_96GiB": mem.total <= NODE_BUDGET,
                    "_total": mem.total,
                }
            )
        return out

    data = benchmark(rows)
    report("t4_memory", "T4: per-node memory at 96,000 nodes (14.5T model)", [
        {k: v for k, v in r.items() if k != "_total"} for r in data
    ])

    by = {r["layout"]: r for r in data}
    assert not by["replicated experts"]["fits_96GiB"]
    assert by["MoDa + ZeRO-64"]["fits_96GiB"]
    assert by["MoDa sharded"]["_total"] < by["replicated experts"]["_total"] / 100


def test_t4_all_brain_scale_configs_fit_with_sharding(benchmark, report):
    def rows():
        out = []
        for label, factory in BRAIN_SCALE_CONFIGS.items():
            cfg = factory()
            # Largest EP width that divides the machine and leaves no rank
            # idle (the 1.93T model has fewer expert instances than nodes).
            instances = cfg.num_moe_layers * cfg.num_experts
            ep = NODES
            while ep > instances or NODES % ep != 0:
                ep //= 2
            plan = ParallelPlan(
                num_nodes=NODES, ep_size=ep, micro_batch=1, seq_len=2048,
                zero_shards=64,
            )
            mem = node_memory(cfg, plan)
            out.append(
                {
                    "model": cfg.name,
                    "node_total": format_bytes(mem.total),
                    "fits_96GiB": mem.total <= NODE_BUDGET,
                }
            )
        return out

    data = benchmark(rows)
    report("t4_all_configs", "T4b: brain-scale configs per-node memory (MoDa+ZeRO-64)", data)
    assert all(r["fits_96GiB"] for r in data)


def test_t4_functional_zero_state_shrinks(benchmark, report):
    """Functional check: the implemented ZeRO optimizer's state really
    shrinks with the sharding degree (not just the analytic model)."""
    from repro.models import build_model, tiny_config
    from repro.parallel import ZeroAdamW
    from repro.simmpi import run_spmd

    def measure():
        def program(comm):
            model = build_model(tiny_config(), seed=0)
            opt = ZeroAdamW(model.parameters(), comm, lr=1e-3)
            return opt.optimizer_state_bytes()

        rows = []
        for ranks in (1, 2, 4, 8):
            per_rank = run_spmd(program, ranks).returns
            rows.append(
                {
                    "dp_ranks": ranks,
                    "state_bytes_per_rank(max)": max(per_rank),
                    "state_bytes_total": sum(per_rank),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("t4_functional", "T4c: measured ZeRO-1 optimizer state vs ranks", rows)

    totals = {r["dp_ranks"]: r for r in rows}
    assert totals[8]["state_bytes_per_rank(max)"] <= totals[1]["state_bytes_per_rank(max)"] // 8 + 16
    base = totals[1]["state_bytes_total"]
    assert all(abs(r["state_bytes_total"] - base) <= 8 for r in rows)
