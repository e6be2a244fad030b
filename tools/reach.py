"""Every function and method of ``src/repro`` is entered by a run (DESIGN §8,
"src keeps what a run reaches").

The third audit, and the only one that runs the callers. ``tests/
test_knob_audit.py`` and ``tests/test_name_audit.py`` match names, so a
function whose name NumPy or another class shares (``exp``, ``astype``,
``alltoall_time``) passes them unread. This one copies the tree into a
temporary directory, runs the caller set there with a profile hook in every
Python process, and lists each top-level function and method of ``repro``
whose code object no process entered. The caller set is:

- every ``examples/*.py``, each from a scratch directory;
- every CLI command CI's smokes run (once each, with CI's flags), plus
  ``train``, ``project`` and ``configs``, and the benchmark entries CI runs
  as scripts (``tests/test_reach.py`` checks both against the workflow);
- the four ``bench/child.py --quick`` workloads, plain, traced and probed;
- every ``benchmarks/bench_*.py`` under ``pytest --benchmark-disable``
  (pytest-benchmark's instrumentation pause would otherwise clear the hook
  around each timed call).

The hook is a ``sitecustomize`` module put first on ``PYTHONPATH``: Python
imports it at start-up, so child processes (``bench/run.py``'s workloads,
say) are traced too. It installs one ``sys.setprofile`` function, and the
same one through ``threading.setprofile`` for every thread started later
(each simulated rank is a thread). Running in a copy leaves the checkout as it
was: the benchmarks rewrite ``benchmarks/out/`` and the examples write
reports.

A function no run enters is deleted, or sits on :data:`KEEP` with the reason
it stays. A kept function that a run does enter leaves the list. The result
is a floor too: a function behind a flag no caller passes looks dead.

    python tools/reach.py

prints the reached / unreached / kept counts and the wall time, and exits 1
on an unreached function that is not kept, a stale :data:`KEEP` entry or a
caller that failed. It takes about 7 minutes on two cores.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_VIRTUAL_TIME_KILL = (
    "a kill scheduled in virtual time, which ROADMAP item 1 needs to place a crash "
    "independently of the thread scheduler"
)
_KV_BUDGET = (
    "the cache-pressure path: serve under --kv-budget, a flag no caller of this "
    "audit passes"
)
_BF16 = "bf16 rounding: whether bf16 gets a run or is refused is a decision of its own"
_ORACLE = "a test oracle: tests check the program against it"
_QUERY = "a query tests ask of a finished run or of a built object"
_NULL = (
    "the disabled twin of a live method: instrumented code calls either without "
    "branching"
)
_ABSTRACT = "the base of an interface; every class a run builds overrides it"
_ERROR_PATH = "raises on misuse; a run that is right never enters it"
_DUNDER = "a protocol method (repr, len, iteration) tests and debugging use"

#: ``module:qualname`` -> why the function stays although no run enters it.
KEEP: dict[str, str] = {
    "repro.simmpi.faults:FaultPlan.kill_rank_at": _VIRTUAL_TIME_KILL,
    "repro.tensor.dtype:_quantize_bf16": _BF16,
    "repro.tensor.gradcheck:gradcheck": _ORACLE,
    "repro.tensor.gradcheck:numerical_grad": (
        "the central differences of gradcheck, the test oracle, its one caller"
    ),
    "repro.simmpi.hier:hierarchical_alltoall": (
        "proves that the hierarchical alltoall the cost model prices moves the "
        "right data; ROADMAP item 20 gives it a caller or deletes it"
    ),
    "repro.network.presets:cabinet_topology": _ORACLE,
    "repro.network.presets:two_level_topology": _ORACLE,
    **{f"repro.network.topology:Topology.{name}": _ORACLE
       for name in ("coords", "group_of", "levels", "num_groups", "num_levels")},
    "repro.models.module:Module.state_dict": _ORACLE,
    "repro.models.module:Module.load_state_dict": _ORACLE,
    "repro.simmpi.context:RunContext.events_of": _QUERY,
    "repro.simmpi.context:RunContext.summary": _QUERY,
    "repro.simmpi.context:RunContext.tracing": _QUERY,
    "repro.obs.spans:Tracer.find": _QUERY,
    "repro.obs.spans:Tracer.subtree": _QUERY,
    **{f"repro.simmpi.comm:Comm.{name}": _QUERY for name in ("members", "network", "stats")},
    "repro.serve.kvcache:KVCache.committed_tokens": _KV_BUDGET,
    "repro.serve.scheduler:ContinuousBatchScheduler.evict": _KV_BUDGET,
    **{f"repro.obs.registry:{name}": _NULL for name in (
        "NullRegistry.series", "NullRegistry.snapshot", "_NullInstrument.observe_many",
        "_NullInstrument.percentile", "_NullInstrument.summary")},
    **{f"repro.obs.spans:NullTracer.{name}": _NULL for name in (
        "children", "instant", "records", "roots", "spans", "subtree")},
    "repro.models.module:Module.forward": _ABSTRACT,
    "repro.moe.gates:Gate.assign": _ABSTRACT,
    "repro.train.schedules:LRSchedule.lr_at": _ABSTRACT,
    "repro.tensor.tensor:Tensor._item_err": _ERROR_PATH,
    "repro.tensor.tensor:_consumed": _ERROR_PATH,
    **{name: _DUNDER for name in (
        "repro.moe.balance:LoadStats.__str__",
        "repro.network.topology:Topology.__repr__",
        "repro.obs.comm:CommProfile.__iter__",
        "repro.obs.comm:CommProfile.__len__",
        "repro.obs.flight:FlightRecorder.__repr__",
        "repro.obs.registry:MetricRegistry.__len__",
        "repro.obs.registry:MetricRegistry.__repr__",
        "repro.obs.registry:NullRegistry.__len__",
        "repro.obs.registry:NullRegistry.__repr__",
        "repro.obs.registry:_Instrument.__repr__",
        "repro.obs.router:RouterTelemetry.__len__",
        "repro.obs.router:RouterTelemetry.__repr__",
        "repro.obs.spans:NullTracer.__iter__",
        "repro.obs.spans:NullTracer.__len__",
        "repro.obs.spans:NullTracer.__repr__",
        "repro.obs.spans:Tracer.__iter__",
        "repro.obs.spans:Tracer.__repr__",
        "repro.obs.timeseries:SlidingWindow.__len__",
        "repro.obs.timeseries:SlidingWindow.__repr__",
        "repro.serve.autoscaler:Autoscaler.__repr__",
        "repro.serve.kvcache:KVCache.__repr__",
        "repro.serve.router:ReplicaRouter.__repr__",
        "repro.simmpi.comm:Comm.__repr__",
        "repro.simmpi.faults:FaultModel.__repr__",
        "repro.tensor.tensor:Tensor.__repr__",
        "repro.train.metrics:LatencyStats.__repr__")},
}

#: The hook. ``{out}`` is the directory each process writes its reached
#: ``path:first line`` pairs to, ``{prefix}`` the source tree they lie in.
HOOK = """\
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    lines = sorted({{f"{{c.co_filename}}:{{c.co_firstlineno}}" for c in list(_seen)
                    if c.co_filename.startswith({prefix!r})}})
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a") as fh:
        fh.write("".join(line + "\\n" for line in lines))


sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_dump)
"""


def definitions(src: Path, package: str) -> dict[tuple[str, int], str]:
    """``(path, first line)`` -> ``module:qualname`` for every top-level
    function of ``src/package`` and every method of its top-level classes.
    The first line is a code object's: the first decorator's, if any."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for path in sorted((src / package).rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            members = [(node, node.name)] if isinstance(node, defs) else []
            if isinstance(node, ast.ClassDef):
                members = [(item, f"{node.name}.{item.name}")
                           for item in node.body if isinstance(item, defs)]
            for item, qualname in members:
                line = min([item.lineno] + [d.lineno for d in item.decorator_list])
                found[(str(path), line)] = f"{module}:{qualname}"
    return found


def trace(commands: list[tuple[list[str], Path, int]], src: Path, scratch: Path) -> set[str]:
    """Run each ``(argv, cwd, expected exit code)`` under the hook with
    ``src`` first after it on ``PYTHONPATH``; return the ``path:line`` keys of
    every code object under ``src`` any process entered. Raises on a caller
    whose exit code differs."""
    hook_dir, out = scratch / "hook", scratch / "reached"
    hook_dir.mkdir()
    out.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(out=str(out), prefix=str(src) + os.sep))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook_dir), str(src)])}
    for argv, cwd, expected in commands:
        cwd.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != expected:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
    return {line for path in out.iterdir() for line in path.read_text().split()}


def unreached(src: Path, package: str, reached: set[str]) -> list[str]:
    """The ``module:qualname`` of every function no process entered."""
    return sorted({key for (path, line), key in definitions(src, package).items()
                   if f"{path}:{line}" not in reached})


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


#: CI's strategy-matrix layouts (.github/workflows/ci.yml).
_LAYOUTS = [
    "--tp 2 --ep 2", "--zero 2 --ep 2", "--pp 2 --ep 2 --fp16", "--pp 2 --ep 1",
    "--ep 2 --overlap-chunks 2 --observe", "--ep 1", "--ep 4", "--world 2 --pp 2 --ep 1",
    "--ep 2 --overlap-chunks 2 --fp16", "--tp 2 --ep 2 --fp16", "--zero 2 --ep 2 --fp16",
    "--pp 2 --ep 2 --observe",
]


def caller_set(tree: Path, work: Path) -> list[tuple[list[str], Path, int]]:
    """Every caller of the audit, run in the copy ``tree`` from ``work``."""
    py = sys.executable
    cli = [
        ["distributed", "--world", "2", "--ep", "2", "--steps", "2", "--batch-size", "2",
         "--seq-len", "8", "--observe", "--metrics", "run.jsonl"],
        ["report", "run.jsonl", "--out", "report.md", "--title", "Run report"],
        *(["distributed", "--world", "4", "--steps", "2", "--batch-size", "2", "--seq-len",
           "8", *layout.split(), "--metrics", "matrix.jsonl", "--trace", "matrix.json"]
          for layout in _LAYOUTS),
        ["plan", "--nodes", "4", "--top-k", "2", "--steps", "2", "--out", "plan.md",
         "--metrics", "plan.jsonl"],
        ["plan", "--nodes", "4", "--top-k", "2", "--steps", "2", "--out", "plan_b.md"],
        ["plan", "--nodes", "8", "--overlap-chunks", "2", "--no-verify", "--out",
         "plan_ov2.md", "--metrics", "plan_ov2.jsonl"],
        ["plan", "--nodes", "96000", "--cluster", "sunway", "--no-verify", "--out",
         "plan_96k.md"],
        ["serve", "--ep", "2", "--replicas", "2", "--requests", "12", "--arrival-rate",
         "2000", "--tiers", "2", "--shed-tier", "1", "--queue-depth", "3",
         "--hedge-after-ms", "1", "--span-dump", "spans.json", "--metrics", "serve.jsonl",
         "--trace", "serve_trace.json"],
        ["serve", "--ep", "2", "--replicas", "2", "--requests", "12", "--arrival-rate",
         "2000", "--expert-capacity", "2", "--overlap-chunks", "2", "--sample",
         "--hedge-after-ms", "1", "--span-dump", "spans2.json", "--metrics",
         "serve2.jsonl", "--trace", "serve2_trace.json"],
        ["serve", "--ep", "2", "--requests", "12", "--arrival-rate", "2000",
         "--expert-capacity", "2", "--span-dump", "single.json", "--metrics",
         "single.jsonl"],
        ["report", "serve.jsonl"],
        ["resilient", "--world", "2", "--ep", "2", "--steps", "4", "--checkpoint-dir",
         "ck", "--metrics", "res.jsonl", "--trace", "res_trace.json"],
        ["resilient", "--world", "4", "--ep", "2", "--steps", "4", "--dead-node", "1",
         "--checkpoint-dir", "ck_dead", "--metrics", "res_dead.jsonl", "--trace",
         "res_dead_trace.json"],
        ["resilient", "--world", "5", "--ep", "1", "--steps", "4", "--dead-node", "1",
         "--shrink-after", "1", "--checkpoint-dir", "ck_odd", "--metrics",
         "res_odd.jsonl", "--trace", "res_odd_trace.json"],
        ["resilient", "--world", "2", "--ep", "2", "--steps", "2"],
        ["train", "--steps", "2", "--batch-size", "2", "--seq-len", "8", "--sample", "2"],
        ["project"],
        ["configs"],
    ]
    commands = [(_cli(*args), work / "cli", 0) for args in cli]
    # The one refusal CI checks: ZeRO does not compose with tp.
    commands.append((_cli("distributed", "--world", "4", "--ep", "1", "--tp", "2", "--zero",
                          "2", "--steps", "1", "--batch-size", "2", "--seq-len", "8"),
                     work / "cli", 1))
    for name, out in (("t8_serving", []), ("t10_fleet", ["--out", "fleet.txt"]),
                      ("t11_autoscale", ["--out", "scale.txt"]), ("f10_overlap", [])):
        commands.append(([py, str(tree / "benchmarks" / f"bench_{name}.py"), "--smoke", *out],
                         work / "smoke", 0))
    for example in sorted((tree / "examples").glob("*.py")):
        commands.append(([py, str(example)], work / "examples" / example.stem, 0))
    for workload in ("train_moda_w8", "train_single_w1", "plan_sunway", "serve_fleet"):
        child = [py, str(tree / "bench" / "child.py"), "--workload", workload,
                 "--seed", "0", "--quick"]
        commands += [(child, tree, 0),
                     (child + ["--trace-out", str(work / f"trace-{workload}.json")], tree, 0),
                     (child + ["--probes", "--reference-op-s", "0.01"], tree, 0)]
    commands.append(([py, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
                      "--benchmark-disable"], tree, 0))
    return commands


def _copy(scratch: Path) -> Path:
    tree = scratch / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.egg-info", ".pytest_cache", ".benchmarks"))
    return tree


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        tree = _copy(scratch)
        src = tree / "src"
        try:
            reached = trace(caller_set(tree, scratch / "work"), src, scratch)
        except RuntimeError as err:
            print(f"reach: a caller failed: {err}")
            return 1
        total = len(set(definitions(src, "repro").values()))
        missing = unreached(src, "repro", reached)
    dead = [key for key in missing if key not in KEEP]
    stale = sorted(set(KEEP) - set(missing))
    print(f"reach: {total - len(missing)} of {total} functions reached, "
          f"{len(missing)} not ({len(missing) - len(dead)} kept), "
          f"{time.perf_counter() - start:.0f} s")
    for key in dead:
        print(f"unreached, not kept: {key}")
    for key in stale:
        print(f"kept, but reached or gone: {key}")
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main())
