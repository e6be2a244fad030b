"""F10 (ablation) — communication/computation overlap, measured + analytic.

BaGuaLu-class systems bucket the dense-gradient allreduce and overlap it
with backward compute, and pipeline the MoE token alltoalls against
expert matmuls. The measured half of this bench runs real SPMD training
through the runner's ``overlap_chunks`` knob: nonblocking collectives
charge only the *exposed* remainder of their network cost, so the
virtual-clock step time shrinks while the loss trajectory stays
bit-identical to the blocking schedule. The analytic half sweeps the
same knobs at full machine scale with :class:`~repro.perf.StepModel`.

Run standalone as ``python benchmarks/bench_f10_overlap.py --smoke`` for
a seconds-scale CI smoke (world=4, overlap_chunks 2 and 4: measured speedup
> 1, bitwise-equal losses and the blocking run's traffic bytes).
"""

from repro.hardware import sunway_machine
from repro.models import ModelConfig, bagualu_14_5t
from repro.network import sunway_network
from repro.obs import profile_comm
from repro.parallel import TrainingRunConfig, run_distributed_training
from repro.perf import ParallelPlan, StepModel
from repro.utils import format_count, format_time

NODES = 96_000

# Measured-run shape: big enough that bandwidth + modelled compute
# dominate the per-chunk latency the overlap schedule adds.
WORLD = 4
BATCH, SEQ, STEPS = 8, 32, 3


def _measured_model() -> ModelConfig:
    return ModelConfig(
        vocab_size=128, max_seq_len=64, d_model=128, d_ff=512, n_layers=2,
        n_heads=4, num_experts=8, top_k=2, moe_every=1, name="f10-overlap",
    )


def _run_measured(overlap_chunks: int):
    return run_distributed_training(TrainingRunConfig(
        model=_measured_model(), world_size=WORLD, ep_size=WORLD,
        num_steps=STEPS, batch_size=BATCH, seq_len=SEQ,
        overlap_chunks=overlap_chunks,
    ))


def _measured_rows() -> list[dict]:
    """One row per overlap width: measured step time, hidden comm,
    analytic prediction, and model-vs-measured error."""
    model = _measured_model()
    sm = StepModel(model, sunway_machine(WORLD), sunway_network(WORLD))
    baseline = _run_measured(1)
    rows = []
    for chunks in (1, 2, 4):
        res = baseline if chunks == 1 else _run_measured(chunks)
        assert res.losses == baseline.losses, "overlap changed the math"
        stats = res.context.stats
        hidden = sum(
            r["hidden_seconds"] for r in profile_comm(res.context).records()
        )
        predicted = sm.step_time(ParallelPlan(
            num_nodes=WORLD, ep_size=WORLD, micro_batch=BATCH, seq_len=SEQ,
            overlap_chunks=chunks,
        ))
        rows.append({
            "overlap_chunks": chunks,
            "step_time": format_time(res.step_time),
            "speedup": round(baseline.step_time / res.step_time, 3),
            "hidden_comm_s": hidden,
            "total_bytes": res.traffic["total_bytes"],
            "model_error_pct": round(
                100 * abs(predicted - res.step_time) / res.step_time, 1
            ),
            "seconds": res.step_time,
        })
        assert stats.summary()["total_bytes"] == baseline.traffic["total_bytes"]
    return rows


def test_f10_measured_overlap_sweep(benchmark, report):
    """Measured: chunked dispatch + bucketed grad sync beat blocking at
    world=4 with bit-identical losses and byte-stable traffic."""
    rows = benchmark.pedantic(_measured_rows, rounds=1, iterations=1)
    report(
        "f10_measured",
        "F10a: measured overlap sweep (world=4, ep=4, bitwise-equal losses)",
        rows,
    )
    assert rows[0]["hidden_comm_s"] == 0.0  # blocking hides nothing
    for row in rows[1:]:
        assert row["speedup"] > 1.0
        assert row["hidden_comm_s"] > 0.0
    # Wider pipelines hide at least as much as narrower ones here.
    assert rows[2]["seconds"] <= rows[1]["seconds"]


def test_f10_analytic_overlap_sweep(benchmark, report):
    """Analytic: grad-sync overlap fraction at full machine scale."""
    cfg = bagualu_14_5t()
    sm = StepModel(cfg, sunway_machine(NODES), sunway_network(NODES))

    def sweep():
        rows = []
        for overlap in (0.0, 0.5, 1.0):
            plan = ParallelPlan(
                num_nodes=NODES, ep_size=NODES, micro_batch=8, seq_len=2048,
                load_imbalance=1.05, overlap=overlap,
            )
            t = sm.step_time(plan)
            rows.append(
                {
                    "overlap": overlap,
                    "step_time": format_time(t),
                    "seconds": t,
                    "sustained": format_count(sm.achieved_flops(plan)) + "FLOPS",
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f10_overlap", "F10b: gradient-sync overlap at 96,000 nodes (14.5T)", rows)

    times = [r["seconds"] for r in rows]
    assert times[0] > times[2]
    # The win is bounded by the sync time itself (a few percent at mb=8).
    assert times[2] > times[0] * 0.9


def test_f10_analytic_chunked_dispatch(benchmark, report):
    """Analytic: chunked dispatch also hides alltoall time at scale."""
    cfg = bagualu_14_5t()
    sm = StepModel(cfg, sunway_machine(NODES), sunway_network(NODES))

    def sweep():
        rows = []
        base = None
        for chunks in (1, 2, 4, 8):
            plan = ParallelPlan(
                num_nodes=NODES, ep_size=NODES, micro_batch=8, seq_len=2048,
                load_imbalance=1.05, overlap_chunks=chunks,
            )
            t = sm.step_time(plan)
            base = base if base is not None else t
            rows.append(
                {
                    "overlap_chunks": chunks,
                    "step_time": format_time(t),
                    "seconds": t,
                    "speedup": round(base / t, 3),
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f10_chunked", "F10c: chunked expert dispatch at 96,000 nodes", rows)
    assert rows[1]["seconds"] < rows[0]["seconds"]


def test_f10_overlap_matters_most_at_small_batch(benchmark, report):
    """Small micro-batches are comm-heavier, so overlap buys more there."""
    cfg = bagualu_14_5t()
    sm = StepModel(cfg, sunway_machine(NODES), sunway_network(NODES))

    def sweep():
        rows = []
        for mb in (1, 8):
            t0 = sm.step_time(ParallelPlan(num_nodes=NODES, ep_size=NODES,
                                           micro_batch=mb, seq_len=2048))
            t1 = sm.step_time(ParallelPlan(num_nodes=NODES, ep_size=NODES,
                                           micro_batch=mb, seq_len=2048, overlap=1.0))
            rows.append(
                {
                    "micro_batch": mb,
                    "no_overlap": format_time(t0),
                    "full_overlap": format_time(t1),
                    "gain_pct": round(100 * (1 - t1 / t0), 2),
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f10_by_batch", "F10d: overlap gain vs micro-batch", rows)
    assert rows[0]["gain_pct"] > rows[1]["gain_pct"]


def _smoke() -> int:
    """Fast end-to-end check: measured speedup at overlap_chunks=2 and 4."""
    baseline = _run_measured(1)
    for chunks in (2, 4):
        overlapped = _run_measured(chunks)
        if overlapped.losses != baseline.losses:
            print(f"f10 smoke: FAIL — overlap_chunks={chunks} changed the loss trajectory")
            return 1
        if overlapped.traffic["total_bytes"] != baseline.traffic["total_bytes"]:
            print(f"f10 smoke: FAIL — overlap_chunks={chunks} changed the traffic bytes")
            return 1
        hidden = sum(overlapped.context.stats.overlapped_seconds.values())
        speedup = baseline.step_time / overlapped.step_time
        print(
            f"f10 smoke: step {format_time(baseline.step_time)} -> "
            f"{format_time(overlapped.step_time)} at overlap_chunks={chunks} "
            f"(speedup {speedup:.3f}x, hidden {hidden:.2e}s, losses bitwise "
            f"equal, {overlapped.traffic['total_bytes']} bytes as blocking)"
        )
        if speedup <= 1.0 or hidden <= 0.0:
            print("f10 smoke: FAIL — expected a strictly positive overlap win")
            return 1
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fast end-to-end check (CI)")
    if ap.parse_args().smoke:
        sys.exit(_smoke())
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from conftest import format_table

    print(format_table(
        "F10a: measured overlap sweep (world=4, ep=4)", _measured_rows()
    ))
