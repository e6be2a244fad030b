"""Tests of the benchmark itself: ``python -m pytest bench/`` (about 90 s).

Everything runs in ``--quick`` mode through the real command line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bench import compare, spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=True)


def _quick(tmp: Path, name: str, seed: int, *extra: str) -> tuple[dict, str]:
    out = tmp / f"{name}.json"
    proc = _run("--quick", "--seed", str(seed), "--out", str(out), *extra)
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    traced, stdout = _quick(tmp, "traced", 11, "--trace")
    again, _ = _quick(tmp, "again", 11)
    other, _ = _quick(tmp, "other", 12)
    return dict(traced=traced, again=again, other=other, stdout=stdout, tmp=tmp)


def test_contract_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8 and len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert "setup_s" in END_TO_END


def test_printed_names_are_the_contract_names(results):
    lines = results["stdout"].splitlines()
    for workload in WORKLOADS:
        printed = [line.split()[1] for line in lines if line.startswith(workload + " ")]
        assert printed == END_TO_END + ["failed_share"]
    homes = set()
    for workload, result in results["traced"]["runs"][0].items():
        assert list(result["metrics"]) == END_TO_END
        assert list(result["traced"]["metrics"]) == PER_LAYER
        homes |= set(result["traced"]["measured_here"])
    assert homes == set(PER_LAYER), "every per-layer metric needs a workload measuring it"


def test_driver_form_prints_exactly_the_contract_metrics():
    for flag, names in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = _run("--workload", "plan_sunway", "--seed", "3", "--quick", "--trace", flag)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == names
        units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
        assert all(m["unit"] == units[name] for name, m in last["metrics"].items())


def test_simulated_clock_is_deterministic_per_seed(results):
    for workload in WORKLOADS:
        first = results["traced"]["runs"][0][workload]["simulated"]
        again = results["again"]["runs"][0][workload]["simulated"]
        other = results["other"]["runs"][0][workload]["simulated"]
        assert first == again
        assert first != other, f"{workload}: another seed must give other inputs"
    assert all(w["correct"] and w["failed"] == 0
               for run in results["traced"]["runs"] for w in run.values())


def test_traces_are_well_formed(results):
    shares = {}
    for workload, result in results["traced"]["runs"][0].items():
        traced = result["traced"]
        records = json.loads((ROOT / traced["trace_file"]).read_text())
        assert spans.problems(records) == []
        assert {r["workload"] for r in records} == {workload}
        assert traced["metrics"]["bench.attributed_share"]["value"] >= 0.95
        shares[workload] = traced["metrics"]["simmpi.in_step_share"]["value"]
        if workload == "plan_sunway":
            assert not [r for r in records if r["name"].startswith(("simmpi.", "tensor."))]
    assert shares["train_moda_w8"] > 0.2
    assert shares["train_moda_w8"] >= 4 * shares["train_single_w1"]


def test_self_time_handles_parallel_and_nested_children():
    def span(i, start, end, parent, rank=None):
        return dict(id=i, name=f"bench.s{i}", start=start, end=end, parent=parent,
                    rank=rank, workload="w")

    records = [span(0, 0.0, 10.0, None), span(1, 1.0, 6.0, 0, 0), span(2, 2.0, 9.0, 0, 1),
               span(3, 2.0, 3.0, 1, 0)]
    selfs = spans.self_times(records)
    assert selfs == {0: pytest.approx(2.0), 1: pytest.approx(4.0), 2: pytest.approx(7.0),
                     3: pytest.approx(1.0)}
    assert spans.problems(records) == []
    assert spans.problems(records + [span(4, 5.0, 11.0, 0)]) == ["bench.s4 lies outside bench.s0"]


def test_compare_reads_result_files(results):
    rows, ok = compare.compare(results["traced"], results["again"])
    assert {row[-1] for row in rows} <= {"better", "same", "worse", "unresolved"}
    sim = [row for row in rows if row[5] == "exact"]
    assert sim and all(row[-1] == "same" for row in sim)
    drifted = json.loads(json.dumps(results["again"]))
    drifted["runs"][0]["train_moda_w8"]["simulated"]["train.final_loss"] *= 1.001
    rows, ok = compare.compare(results["traced"], drifted)
    assert not ok
    assert [row[-1] for row in rows if row[1] == "train.final_loss"
            and row[0] == "train_moda_w8"] == ["worse"]
