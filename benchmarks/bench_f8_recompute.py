"""F8 (ablation) — activation recomputation: memory saved vs compute paid.

BaGuaLu-scale training cannot store every activation; recomputation trades
the per-layer activation memory for one extra forward (~33% more dense
compute). This ablation prices the trade at 96,000 nodes and verifies the
functional implementation costs what the model says.
"""

import numpy as np

from repro.hardware import SW26010_PRO, sunway_machine
from repro.models import bagualu_14_5t, build_model, tiny_config
from repro.network import sunway_network
from repro.perf import ParallelPlan, StepModel, node_memory
from repro.utils import format_bytes, format_time


def test_f8_memory_compute_trade(benchmark, report):
    cfg = bagualu_14_5t()
    sm = StepModel(cfg, sunway_machine(96_000), sunway_network(96_000))

    def rows():
        out = []
        for mb in (1, 8, 32):
            for recompute in (False, True):
                plan = ParallelPlan(
                    num_nodes=96_000, ep_size=96_000, micro_batch=mb,
                    seq_len=2048, zero_shards=64, recompute=recompute,
                )
                mem = node_memory(cfg, plan)
                bd = sm.step_breakdown(plan)
                out.append(
                    {
                        "micro_batch": mb,
                        "recompute": recompute,
                        "activations": format_bytes(mem.activations),
                        "node_total": format_bytes(mem.total),
                        "fits_96GiB": mem.total <= SW26010_PRO.memory_bytes,
                        "step_time": format_time(bd.total),
                        "_seconds": bd.total,
                        "_total": mem.total,
                    }
                )
        return out

    data = benchmark(rows)
    report("f8_recompute", "F8: recomputation ablation at 96,000 nodes (14.5T)", [
        {k: v for k, v in r.items() if not k.startswith("_")} for r in data
    ])

    by = {(r["micro_batch"], r["recompute"]): r for r in data}
    # mb=32 without recompute blows the node budget; with it, it fits.
    assert not by[(32, False)]["fits_96GiB"]
    assert by[(32, True)]["fits_96GiB"]
    # Extra compute is bounded (~<40% step-time increase).
    assert by[(8, True)]["_seconds"] < by[(8, False)]["_seconds"] * 1.4


def test_f8_functional_grad_identity(benchmark, report):
    """The implemented checkpointing changes memory/compute, not numbers."""
    rng = np.random.default_rng(0)
    cfg = tiny_config()
    tokens = rng.integers(0, cfg.vocab_size, size=(4, 16))

    def run():
        plain = build_model(cfg, seed=9)
        ckpt = build_model(tiny_config(recompute=True), seed=9)
        plain.loss(tokens, tokens).backward()
        ckpt.loss(tokens, tokens).backward()
        worst = 0.0
        for (_, a), (_, b) in zip(plain.named_parameters(), ckpt.named_parameters()):
            if a.grad is not None and b.grad is not None:
                worst = max(worst, float(np.abs(a.grad - b.grad).max()))
        return [{"max_grad_difference": worst}]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("f8_identity", "F8b: recompute gradient identity", rows)
    assert rows[0]["max_grad_difference"] < 1e-5
