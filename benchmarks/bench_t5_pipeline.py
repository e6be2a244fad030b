"""T5 (extension) — pipeline parallelism: bubble overhead vs microbatches.

The GPipe bubble idles (S-1)/(M+S-1) of the step. This bench drives the
``pipeline`` strategy through the registry entry point — the same path
the CLI's ``--pp`` flag takes — and checks the measured trend against
the analytic formula. The third parallel axis on top of the paper's
MoDa.
"""

from repro.hardware import laptop_machine
from repro.models import tiny_config
from repro.network import flat_network
from repro.parallel import (
    TrainingRunConfig,
    pipeline_bubble_fraction,
    run_distributed_training,
)

CFG = tiny_config(n_layers=4, aux_weight=0.0)
STAGES = 4
BATCH = 8


def _pipeline_time(num_microbatches: int) -> float:
    """Simulated per-step time of the pipeline strategy at STAGES ranks."""
    res = run_distributed_training(
        TrainingRunConfig(
            model=CFG, world_size=STAGES, pp_size=STAGES, num_steps=1,
            batch_size=BATCH, seq_len=8, num_microbatches=num_microbatches,
        ),
        network=flat_network(STAGES),
        machine=laptop_machine(STAGES),
    )
    assert res.meta["strategy"] == "pipeline"
    return res.step_time


def test_t5_bubble_vs_microbatches(benchmark, report):
    def measure():
        rows = []
        base = None
        for m in (1, 2, 4, 8):
            t = _pipeline_time(m)
            if base is None:
                base = t
            rows.append(
                {
                    "microbatches": m,
                    "step_time_s": t,
                    "vs_m1": round(t / base, 3),
                    "analytic_bubble": round(pipeline_bubble_fraction(STAGES, m), 3),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("t5_pipeline", "T5: GPipe step time vs microbatch count (4 stages)", rows)

    times = [r["step_time_s"] for r in rows]
    # Shape: more microbatches shrink the bubble -> faster steps.
    assert times[-1] < times[0]
    bubbles = [r["analytic_bubble"] for r in rows]
    assert all(a > b for a, b in zip(bubbles, bubbles[1:]))


def test_t5_stage_memory_partition(benchmark, report):
    """Each stage holds ~1/S of the parameters (the memory win)."""
    from repro.parallel import PipelineStage

    def measure():
        full = sum(
            PipelineStage(CFG, 1, 0, seed=0).num_parameters() for _ in range(1)
        )
        rows = []
        for s_count in (1, 2, 4):
            biggest = max(
                PipelineStage(CFG, s_count, s, seed=0).num_parameters()
                for s in range(s_count)
            )
            rows.append(
                {
                    "stages": s_count,
                    "largest_stage_params": biggest,
                    "fraction_of_model": round(biggest / full, 3),
                }
            )
        return rows

    rows = benchmark(measure)
    report("t5_memory", "T5b: largest-stage parameter fraction", rows)
    fracs = [r["fraction_of_model"] for r in rows]
    assert fracs[0] == 1.0
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
    # Embeddings/head skew the split; still a clear reduction by 4 stages.
    assert fracs[-1] < 0.75
