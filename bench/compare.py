"""bench-diff: compare two result files written by ``bench/run.py``.

    python3 bench/compare.py A.json B.json

One row per (end-to-end metric, workload): both values, the relative
change from A to B, the bound from ``BENCHMARK.json`` and a verdict —
``better`` / ``same`` / ``worse``, or ``unresolved`` when the spread of a
file's own repetitions is wider than the bound. Simulated-clock values are
deterministic for a fixed seed, so between two files made with the same
seed and mode they are compared exactly; any drift reads as better or
worse. Exits 1 when a row is worse or a file records a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.timing import median  # noqa: E402

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}


def _spread(values: list[float]) -> float:
    mid = median(values)
    return (max(values) - min(values)) / abs(mid) if mid else 0.0


def _verdict(a: float, b: float, better: str, bound: float, spread: float) -> str:
    if spread > bound:
        return "unresolved"
    change = (b - a) / abs(a) if a else 0.0
    gain = change if better == "higher" else -change
    if gain > bound:
        return "better"
    return "worse" if gain < -bound else "same"


def compare(a: dict, b: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, change, bound, verdict)`` and an all-clear flag."""
    same_inputs = all(a["environment"][key] == b["environment"][key]
                      for key in ("seed", "quick"))
    rows, ok = [], True
    for workload in a["runs"][0]:
        runs_a = [run[workload] for run in a["runs"]]
        runs_b = [run[workload] for run in b["runs"]]
        for name, meta in END_TO_END.items():
            va = median([r["metrics"][name]["value"] for r in runs_a])
            vb = median([r["metrics"][name]["value"] for r in runs_b])
            exact = same_inputs and name.startswith("sim_")
            bound = runs_a[0]["simulated_rel_tol"] if exact else meta["bound"]
            spread = 0.0 if exact else max(
                _spread([v for r in runs for v in r["repetitions"][name]])
                for runs in (runs_a, runs_b))
            rows.append((workload, name, va, vb, (vb - va) / abs(va),
                         "exact" if exact else f"{bound:.0%}",
                         _verdict(va, vb, meta["better"], bound, spread)))
        if same_inputs:
            for name, va in runs_a[0]["simulated"].items():
                if name in END_TO_END:
                    continue
                vb = runs_b[0]["simulated"][name]
                rows.append((workload, name, va, vb, (vb - va) / abs(va) if va else 0.0, "exact",
                             _verdict(va, vb, PER_LAYER[name]["better"],
                                      runs_a[0]["simulated_rel_tol"], 0.0)))
        failed = sum(r["failed"] for r in runs_a + runs_b)
        if failed:
            ok = False
            rows.append((workload, "failed_ops", sum(r["failed"] for r in runs_a),
                         sum(r["failed"] for r in runs_b), 0.0, "0", "worse"))
    return rows, ok and all(row[-1] != "worse" for row in rows)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    rows, ok = compare(a, b)
    print(f"{'workload':16s} {'metric':30s} {'A':>14s} {'B':>14s} {'change':>9s} "
          f"{'bound':>6s}  verdict")
    for workload, name, va, vb, change, bound, verdict in rows:
        print(f"{workload:16s} {name:30s} {va:>14.6g} {vb:>14.6g} {change:>+9.2%} "
              f"{bound:>6s}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
