"""One benchmark process: one workload launch, or one probe group.

``run.py`` starts each of these fresh so that set-up time and peak RSS
belong to one workload. The last line of standard output is one JSON
object. Nothing here is meant to be run by hand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import env  # noqa: E402

env.pin()  # before anything imports NumPy
sys.path.insert(0, str(env.SRC))

from bench import spans  # noqa: E402


@dataclass(frozen=True)
class Spec:
    workload: str
    seed: int
    #: Timed window in host seconds; None runs the workload's fixed op count.
    window: float | None
    quick: bool


#: Workload name -> the ``bench`` module holding its ``run`` and ``probes``.
MODULES = {"train_moda_w8": "train", "train_single_w1": "train",
           "plan_sunway": "plan", "serve_fleet": "serve"}


def _module(spec: Spec):
    return importlib.import_module(f"bench.{MODULES[spec.workload]}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--reference-op-s", type=float, default=0.0)
    args = parser.parse_args()
    spec = Spec(args.workload, args.seed, args.window, args.quick)

    if args.probes:
        print(json.dumps({"per_layer": _module(spec).probes(spec, args.reference_op_s)}))
        return

    tracer = spans.Tracer(spec.workload, enabled=args.trace_out is not None)
    with tracer.span("bench.workload"):
        with tracer.span("bench.setup"):
            module = _module(spec)  # imports NumPy and the program
            from bench.calibrate import slowness
            early = slowness()
        out = module.run(spec, tracer)
    result = {
        # Host times are calibrated (bench/calibrate.py); raw ones ride along.
        "op_s": out["op_s"],
        "raw_op_s": out["raw_op_s"],
        "slowness": out["slowness"],
        "work_per_op": out["work_per_op"],
        # Set-up is bracketed by the sample after the imports and the one
        # before the first op.
        "setup_s": (out["first_op_wall"] - args.spawned_at)
        / (0.5 * (early + out["slowness"][0])),
        "peak_rss_mb": out["peak_rss_mb"],
        "attempted": out["attempted"],
        "failures": out["failures"],
        "sim": out["sim"],
        "sim_rel_tol": out.get("sim_rel_tol", 0.0),
        "per_layer": {**out["counts"], **out["span_metrics"]},
    }
    if tracer.enabled:
        # span_metrics were computed inside the root span; everything that
        # needs the closed root comes here.
        layers, root_s, share = spans.layer_table(tracer.records)
        result["trace"] = {
            "layers": layers,
            "root_s": root_s,
            "attributed_share": share,
            "span_count": len(tracer.records),
            "problems": spans.problems(tracer.records),
        }
        spans.write(tracer.records, args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
