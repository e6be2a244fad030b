"""T9 — auto-parallelism planner: ranked layouts vs measured step times.

The planner enumerates every launchable (dp, tp, pp, ep, zero) layout for
a model + cluster preset, ranks them with the analytic step model, then
verifies the top two with short simulated runs through the same strategy
registry a real launch uses. This bench sweeps node counts on the
compute-dominated ``toy`` preset and publishes the ranked table with
model-vs-measured error columns — the planner's accuracy contract is a
median calibrated error of at most 25% on the verified candidates.
"""

from repro.models import tiny_config
from repro.plan import plan_layouts

CFG = tiny_config(n_layers=4, moe_every=2, num_experts=8)

NODE_COUNTS = (4, 8, 16)


def _axes(layout) -> str:
    return (f"dp={layout.dp_size} tp={layout.tp_size} pp={layout.pp_size} "
            f"ep={layout.ep_size} zero={layout.zero_shards}")


def test_t9_planner_node_sweep(benchmark, report):
    def run():
        rows = []
        medians = {}
        for nodes in NODE_COUNTS:
            result = plan_layouts(CFG, num_nodes=nodes, cluster="toy")
            medians[nodes] = result.median_relative_error
            measured = {
                v.candidate.layout: v for v in result.verified
            }
            for rank, cand in enumerate(result.candidates[:5], start=1):
                v = measured.get(cand.layout)
                rows.append(
                    {
                        "nodes": nodes,
                        "rank": rank,
                        "layout": _axes(cand.layout),
                        "strategy": cand.strategy,
                        "predicted_s": cand.predicted_step_time,
                        "measured_s": "-" if v is None else f"{v.measured_step_time:.3e}",
                        "error": "-" if v is None else f"{v.relative_error:.1%}",
                        "cal_error": (
                            "-" if v is None or v.calibrated_relative_error is None
                            else f"{v.calibrated_relative_error:.1%}"
                        ),
                    }
                )
            rows.append(
                {
                    "nodes": nodes,
                    "rank": "-",
                    "layout": f"(+{max(len(result.candidates) - 5, 0)} more, "
                              f"{len(result.rejected)} rejected)",
                    "strategy": "-",
                    "predicted_s": 0.0,
                    "measured_s": "-",
                    "error": "-",
                    "cal_error": (
                        "-" if medians[nodes] is None
                        else f"median {medians[nodes]:.1%}"
                    ),
                }
            )
        return rows, medians

    rows, medians = benchmark.pedantic(run, rounds=1, iterations=1)
    report("t9_plan", "T9: planner ranked layouts vs measured (toy cluster)", rows)

    # The accuracy contract: median calibrated error <= 25% at every width.
    for nodes, med in medians.items():
        assert med is not None, f"no verified candidates at {nodes} nodes"
        assert med <= 0.25, f"median error {med:.1%} at {nodes} nodes"
