"""T6 (extension) — 3D parallelism: grid-shape sweep at fixed world size.

With pipe x data x expert factorizations of the same 16 ranks, numerics
are identical (tested) while the simulated step time varies with the
communication mix: pipelines add p2p boundary traffic but shrink per-rank
dense allreduce volume; EP adds alltoalls but shrinks expert memory.
Every shape launches through one entry point — the layout alone
(``ep_size``/``pp_size``) selects dp, moda, or pp_moda — so this bench
doubles as an end-to-end check of ``strategy_for_layout``.
"""

from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig, run_distributed_training
from repro.utils import format_time

CFG = tiny_config(n_layers=4, num_experts=16)
WORLD = 16
NET = sunway_network(WORLD, supernode_size=4)


def _run_shape(pipe, ep, steps=2):
    res = run_distributed_training(
        TrainingRunConfig(
            model=CFG, world_size=WORLD, ep_size=ep, pp_size=pipe,
            num_steps=steps, batch_size=4, seq_len=8, num_microbatches=2,
            model_compute_time=False,  # isolate the communication mix
        ),
        network=NET,
    )
    return res


def test_t6_grid_shape_sweep(benchmark, report):
    def measure():
        rows = []
        for pipe, ep, label in [
            (1, 1, "pure DP (16 pipelines x 1)"),
            (1, 4, "MoDa (dp=4 x ep=4)"),
            (2, 4, "3D (pipe=2 x dp=2 x ep=4)"),
            (4, 4, "3D (pipe=4 x dp=1 x ep=4)"),
        ]:
            res = _run_shape(pipe, ep)
            rows.append(
                {
                    "grid": label,
                    "strategy": res.meta["strategy"],
                    "step_time": format_time(res.step_time),
                    "seconds": res.step_time,
                    "p2p_msgs": res.traffic["p2p_messages"],
                    "losses0": round(res.losses[0], 4),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("t6_grid", "T6: 3D grid factorizations at 16 ranks", rows)

    by = {r["grid"]: r for r in rows}
    # The layout alone routes each shape to the right strategy.
    assert by["pure DP (16 pipelines x 1)"]["strategy"] == "dp"
    assert by["MoDa (dp=4 x ep=4)"]["strategy"] == "moda"
    assert by["3D (pipe=2 x dp=2 x ep=4)"]["strategy"] == "pp_moda"
    # Pipeline shapes produce boundary p2p traffic; flat shapes none.
    assert by["3D (pipe=2 x dp=2 x ep=4)"]["p2p_msgs"] > 0
    assert by["MoDa (dp=4 x ep=4)"]["p2p_msgs"] == 0
    # Same plane width (=16) shapes see the same data -> same first loss.
    assert by["pure DP (16 pipelines x 1)"]["losses0"] == by["MoDa (dp=4 x ep=4)"]["losses0"]
