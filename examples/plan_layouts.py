#!/usr/bin/env python
"""Search parallel layouts with the auto-parallelism planner.

One call enumerates every launchable (dp, tp, pp, ep, zero) factorization
of an 8-node world for a tiny MoE config, ranks them with the analytic
step model, verifies the top-2 with short simulated training runs of
their launch configs, and calibrates the model against the best
measurement. The script prints the ranked table, the rejections (each
carrying the exact error message a real launch would raise), and writes
``plan_report.md`` — the same deterministic markdown the CLI's ``plan``
subcommand produces.

The CLI one-liner:

    python -m repro.cli plan --nodes 8 --cluster toy --out plan.md

Run:  python examples/plan_layouts.py
"""

from repro.api import generate_plan_report, plan_layouts, tiny_config

# 4 layers with alternating dense/MoE blocks: every axis has something to
# parallelise (TP shards the dense FFNs, pp splits the stack, EP the experts).
CFG = tiny_config(n_layers=4, moe_every=2, num_experts=8)
NODES = 8


def main() -> None:
    result = plan_layouts(
        CFG,
        num_nodes=NODES,
        cluster="toy",  # laptop-class nodes on 4-node supernodes
        top_k=2,
        verify_steps=2,
    )

    print(f"planned {CFG.name} on {NODES} 'toy' nodes: "
          f"{len(result.candidates)} launchable layouts, "
          f"{len(result.rejected)} rejected\n")

    print("rank  layout                         strategy   predicted step")
    for rank, cand in enumerate(result.candidates[:8], start=1):
        lay = cand.layout
        axes = (f"dp={lay.dp_size} tp={lay.tp_size} pp={lay.pp_size} "
                f"ep={lay.ep_size} zero={lay.zero_shards}")
        print(f"  #{rank:<3} {axes:<30} {cand.strategy:<10} "
              f"{cand.predicted_step_time * 1e6:8.1f} us")

    print("\nverified against short simulated runs:")
    for v in result.verified:
        cal = ("" if v.calibrated_relative_error is None
               else f" -> {v.calibrated_relative_error:.1%} after calibration")
        print(f"  {v.candidate.layout.describe()}: "
              f"measured {v.measured_step_time * 1e6:.1f} us "
              f"(raw error {v.relative_error:.1%}{cal})")
    if result.calibration is not None:
        print(f"  fitted compute efficiency: {result.calibration.efficiency:.3f}")
    print(f"  median model-vs-measured error: "
          f"{result.median_relative_error:.1%}")

    print("\nsample rejections (same ConfigError a launch would raise):")
    for rej in result.rejected[:3]:
        print(f"  {rej.layout.describe()}: {rej.reason}")

    report = generate_plan_report(result, out_path="plan_report.md",
                                  title=f"Plan report: {CFG.name}")
    print(f"\nwrote plan_report.md ({len(report.splitlines())} lines, "
          "byte-stable across runs)")


if __name__ == "__main__":
    main()
