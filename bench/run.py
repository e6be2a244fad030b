"""The benchmark's one command (see bench/README.md).

Driver form, one workload per call, last line of stdout is the result::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` it runs every workload in ``BENCHMARK.json`` one
after another, prints every metric by name with its unit, and writes a
result file::

    python3 bench/run.py [--seed N] [--quick] [--trace] [--repeat R] [--out F]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from bench import env  # noqa: E402
from bench.timing import median, percentile  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}

#: Fresh processes per measured run. Each sets up once, so ``setup_s`` is a
#: median of this many set-ups, the timed window is split between them,
#: and their simulated-clock results must be bit-equal.
LAUNCHES = 3
QUICK_LAUNCHES = 2
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A child process failed; there is no result to report."""


def child(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(time.time()), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, env={**os.environ, **env.CHILD_ENV})
    if proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sims_agree(a: dict, b: dict) -> bool:
    """Simulated-clock results of two launches: bit-equal, or within the
    tolerance the one workload with a known race declares (bench/serve.py)."""
    return all(abs(b["sim"][name] - value) <= a["sim_rel_tol"] * abs(value)
               for name, value in a["sim"].items())


def _mode(quick: bool, window: float | None) -> list[str]:
    if quick:
        return ["--quick"]
    return [] if window is None else ["--window", repr(window)]


def _host_metrics(op_s: list[float], work_per_op: float) -> dict[str, float]:
    return {"host_op_ms_p50": median(op_s) * 1e3,
            "host_work_per_s": work_per_op * len(op_s) / sum(op_s)}


def measure(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    n = QUICK_LAUNCHES if quick else LAUNCHES
    launches = [child(workload, seed, *_mode(quick, seconds / n)) for _ in range(n)]
    first = launches[0]
    failures = [f for launch in launches for f in launch["failures"]]
    if not all(_sims_agree(first, launch) for launch in launches[1:]):
        failures.append("simulated-clock results differ between repetitions")
    # Per launch for the spread compare.py reads; pooled for the reported value.
    reps = [{"setup_s": launch["setup_s"], "peak_rss_mb": launch["peak_rss_mb"],
             "sim_tokens_per_s": launch["sim"]["sim_tokens_per_s"],
             **_host_metrics(launch["op_s"], launch["work_per_op"])}
            for launch in launches]
    ops = [s for launch in launches for s in launch["op_s"]]
    values = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "sim_tokens_per_s": first["sim"]["sim_tokens_per_s"],
        **_host_metrics(ops, first["work_per_op"]),
    }
    return {
        "correct": not failures,
        # One more attempted op: the repetition check itself.
        "attempted": sum(launch["attempted"] for launch in launches) + 1,
        "failed": len(failures),
        "failures": failures,
        "samples": len(ops),
        "metrics": {name: {"value": values[name], "unit": END_TO_END[name]["unit"]}
                    for name in END_TO_END},
        "repetitions": {name: [r[name] for r in reps] for name in END_TO_END},
        "simulated": first["sim"],
        "simulated_rel_tol": first["sim_rel_tol"],
    }


def trace(workload: str, seed: int, quick: bool) -> dict:
    """The traced run: every per-layer metric, 0 where this workload has no source."""
    mode = _mode(quick, None)
    trace_file = BENCH / "out" / f"trace-{workload}.json"
    plain = child(workload, seed, *mode)
    traced = child(workload, seed, *mode, "--trace-out", str(trace_file))
    plain_op_s = median(plain["op_s"])
    probes = child(workload, seed, *mode, "--probes",
                   "--reference-op-s", repr(plain_op_s))
    found = {
        **traced["sim"], **traced["per_layer"], **probes["per_layer"],
        "obs.span_count": traced["trace"]["span_count"],
        "bench.trace_overhead_share": median(traced["op_s"]) / plain_op_s - 1.0,
        "bench.attributed_share": traced["trace"]["attributed_share"],
        "host_op_ms_p90": percentile(plain["op_s"], 90) * 1e3,
        "bench.raw_host_op_ms_p50": median(plain["raw_op_s"]) * 1e3,
        "bench.machine_slowness": median(plain["slowness"]),
    }
    del found["sim_tokens_per_s"]  # end-to-end, reported by the untraced run
    unknown = sorted(set(found) - set(PER_LAYER))
    if unknown:
        raise BenchError(f"{workload}: metrics missing from BENCHMARK.json: {unknown}")
    failures = plain["failures"] + traced["failures"] + traced["trace"]["problems"]
    if not _sims_agree(plain, traced):
        failures.append("tracing changed a simulated-clock result")
    return {
        "correct": not failures,
        "attempted": plain["attempted"] + traced["attempted"] + 1,
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": float(found.get(name, 0.0)), "unit": meta["unit"]}
                    for name, meta in PER_LAYER.items()},
        "measured_here": sorted(found),
        "layers": traced["trace"]["layers"],
        "root_s": traced["trace"]["root_s"],
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------- #
# Printing
# ---------------------------------------------------------------------- #


def _show_measured(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:16s} {name:18s} {metric['value']:>16.6g} {metric['unit']:10s}"
              f" (n={result['samples']} ops)")
    print(f"{workload:16s} {'failed_share':18s} "
          f"{result['failed'] / result['attempted']:>16.6g} {'share':10s}"
          f" ({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"{workload:16s} FAILED: {failure}")


def _show_traced(workload: str, result: dict) -> None:
    print(f"\n{workload}: per-layer metrics (traced run)")
    for name in result["measured_here"]:
        metric = result["metrics"][name]
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{workload}: self time by layer along the main thread and rank 0, "
          f"root span {result['root_s']:.3f} s, "
          f"{result['metrics']['bench.attributed_share']['value']:.1%} attributed")
    for layer, seconds in sorted(result["layers"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {seconds:10.3f} s  {seconds / result['root_s']:6.1%}")
    for failure in result["failures"]:
        print(f"{workload} FAILED: {failure}")


def _repeatability(runs: list[dict]) -> str:
    lines = [f"{'workload':16s} {'metric':18s} {'run 1':>14s} {'run 2':>14s} "
             f"{'rel diff':>9s} {'bound':>6s}"]
    for workload in runs[0]:
        for name, meta in END_TO_END.items():
            a, b = (run[workload]["metrics"][name]["value"] for run in runs[:2])
            lines.append(f"{workload:16s} {name:18s} {a:>14.6g} {b:>14.6g} "
                         f"{(b - a) / a:>+9.2%} {meta['bound']:>6.0%}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Entry
# ---------------------------------------------------------------------- #


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="fixed tiny op counts, all workloads in under a minute")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path, help="result file (all-workloads form)")
    args = parser.parse_args()

    if os.getloadavg()[0] > (os.cpu_count() or 1):
        print(f"warning: 1-min load average {os.getloadavg()[0]:.2f} exceeds "
              f"nproc {os.cpu_count()}; host-time metrics will be noisy", file=sys.stderr)

    if args.workload:
        result = (trace(args.workload, args.seed, args.quick) if args.trace
                  else measure(args.workload, args.seed, args.seconds, args.quick))
        for failure in result["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(json.dumps({key: result[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
        return 0 if result["correct"] else 1

    environment = env.describe(args.seed, args.quick)  # load average as of the start
    runs = []
    for _ in range(args.repeat):
        run = {}
        for workload in WORKLOADS:
            run[workload] = measure(workload, args.seed, args.seconds, args.quick)
            _show_measured(workload, run[workload])
        if args.trace:
            for workload in WORKLOADS:
                run[workload]["traced"] = trace(workload, args.seed, args.quick)
                _show_traced(workload, run[workload]["traced"])
        runs.append(run)
    out = args.out or BENCH / "out" / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.repeat > 1:
        table = _repeatability(runs)
        print("\n" + table)
        out.with_name("repeatability.txt").write_text(table)
    out.write_text(json.dumps({"environment": environment, "runs": runs}, indent=1))
    print(f"wrote {out}")
    correct = all(w["correct"] and w.get("traced", w)["correct"]
                  for run in runs for w in run.values())
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
