"""Every function of ``src/repro`` is entered, and every knob set, by a run
(DESIGN §8, "src keeps what a run reaches").

The one audit of functions and knobs, by execution. It copies the tree into
a temporary directory and runs :func:`caller_set` there under a
``sitecustomize`` profile hook: Python imports it at start-up, so child
processes are traced too, and it installs itself for every thread (each
simulated rank is one). It lists each top-level function and method of
``repro`` whose code object no process entered, and each knob
(:func:`knobs`) no call set to another value than its default. Either goes,
or sits on :data:`KEEP` with the reason it stays; a kept one that a run
reaches or sets leaves the table. Classes are not entered, so
``tests/test_name_audit.py`` checks them statically. Running in a copy
leaves the checkout as it was: the benchmarks rewrite ``benchmarks/out/``
and the examples write reports.

    python tools/reach.py

prints the reached / set / kept counts and the wall time, and exits 1 on an
unreached function or unset knob that is not kept, a stale :data:`KEEP`
entry or a caller that failed. It takes about 4 minutes on two cores.
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
_RUN_STATE = "run state the code fills in after construction, not a setting"
_WALL_CLOCK = (
    "the wall-clock deadline of a world's rank threads: a deployment setting for slow "
    "hosts, not part of the modelled run"
)

#: ``module:qualname`` -> why the function stays although no run enters it,
#: or why the knob stays although no run sets it.
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
    **{f"repro.{key}": _DUNDER for key in (
        "moe.balance:LoadStats.__str__", "network.topology:Topology.__repr__",
        "obs.comm:CommProfile.__iter__", "obs.comm:CommProfile.__len__",
        "obs.flight:FlightRecorder.__repr__", "obs.registry:MetricRegistry.__len__",
        "obs.registry:MetricRegistry.__repr__", "obs.registry:NullRegistry.__len__",
        "obs.registry:NullRegistry.__repr__", "obs.registry:_Instrument.__repr__",
        "obs.router:RouterTelemetry.__len__", "obs.router:RouterTelemetry.__repr__",
        "obs.spans:NullTracer.__iter__", "obs.spans:NullTracer.__len__",
        "obs.spans:NullTracer.__repr__", "obs.spans:Tracer.__iter__",
        "obs.spans:Tracer.__repr__", "obs.timeseries:SlidingWindow.__len__",
        "obs.timeseries:SlidingWindow.__repr__", "serve.autoscaler:Autoscaler.__repr__",
        "serve.kvcache:KVCache.__repr__", "serve.router:ReplicaRouter.__repr__",
        "simmpi.comm:Comm.__repr__", "simmpi.faults:FaultModel.__repr__",
        "tensor.tensor:Tensor.__repr__", "train.metrics:LatencyStats.__repr__")},
    # Knobs: ``module:qualname.param``, or ``module:Class.*`` for every
    # field of a record of run state.
    "repro.cli:main.argv": "tests drive the CLI in-process; the console entry point passes none",
    **{f"repro.network.collectives:cost_hierarchical_{op}.level": _ORACLE
       for op in ("allreduce", "alltoall")},
    **{f"repro.network.presets:cabinet_topology.{arity}": _ORACLE
       for arity in ("nodes_per_supernode", "supernodes_per_cabinet", "num_cabinets")},
    **{f"repro.tensor.gradcheck:gradcheck.{tol}": _ORACLE for tol in ("rtol", "atol")},
    "repro.models.generate:generate.use_cache": _ORACLE,
    "repro.obs.spans:Tracer.find.name": _QUERY,
    "repro.obs.spans:Tracer.find.kind": _QUERY,
    **{f"repro.obs.spans:NullTracer.{knob}": _NULL
       for knob in ("begin.parent", "instant.kind", "instant.parent")},
    "repro.simmpi.faults:FaultPlan.kill_rank_at_time": _VIRTUAL_TIME_KILL,
    "repro.simmpi.faults:FaultPlan.kill_rank_at_op": (
        "filled in by kill_rank, which T7 and examples/fault_tolerance.py call, not by "
        "the constructor"
    ),
    "repro.parallel.runner:TrainingRunConfig.timeout": _WALL_CLOCK,
    "repro.serve.engine:ServeConfig.timeout": _WALL_CLOCK,
    "repro.models.module:Parameter.dtype": (
        "tests build parameters of each dtype with it for the update block; a run "
        "casts a built model instead"
    ),
    "repro.parallel.ep:DistributedMoELayer.capacity_factor": (
        "ep_moe_factory forwards ModelConfig.capacity_factor, which F7 sets on the local "
        "layer: an expert-parallel layer drops what the local one drops"
    ),
    "repro.train.trainer:StepResult.imbalance": _RUN_STATE,
    **{f"repro.serve.scheduler:Request.{name}": _RUN_STATE for name in (
        "state", "slot", "generated", "t_admitted", "t_first_token", "t_finished",
        "reason")},
    "repro.serve.router:ReplicaState.*": _RUN_STATE,
    "repro.simmpi.stats:TrafficStats.*": _RUN_STATE,
}

#: The hook. ``{out}`` is the directory each process writes to, ``{prefix}``
#: the source tree audited. Per process it writes ``<pid>.txt``, the
#: ``path:first line`` of every code object under the tree that was entered,
#: and ``<pid>.knobs``, the key of every defaulted parameter a call passed a
#: value other than its default: not ``is`` the default, and not ``==`` it
#: when both are the same immutable literal type.
HOOK = """\
import atexit, dis, os, sys, threading
from types import FunctionType

_PREFIX = {prefix!r}
_LITERALS = (int, float, complex, str, bytes, bool, tuple, frozenset)
_seen = set()
#: code -> None, or [offset of its first RESUME, {{param: (key, default)}}]
#: of the knobs no call has set yet.
_codes = {{}}
_modules = {{}}
_set = set()


def _entry(fn, cls):
    \"\"\"A function's knobs; a class's ``__init__`` keys each by the class, and
    a dataclass field by the dataclass of the MRO that declares it.\"\"\"
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    defaults = dict(zip(names[len(names) - len(fn.__defaults__ or ()):], fn.__defaults__ or ()))
    defaults.update(fn.__kwdefaults__ or {{}})
    knobs = {{}}
    for name, default in defaults.items():
        owner = fn.__module__ + ":" + fn.__qualname__
        if cls is not None and fn.__name__ == "__init__":
            owner = next((c for c in cls.__mro__ if "__dataclass_fields__" in vars(c)
                          and name in vars(c).get("__annotations__", ())), cls)
            owner = owner.__module__ + ":" + owner.__qualname__
        knobs[name] = (f"{{owner}}.{{name}}", default)
    if knobs:  # Python 3.10 has no RESUME: a first entry's f_lasti is -1 there
        return [next((i.offset for i in dis.get_instructions(fn) if i.opname == "RESUME"), -1),
                knobs]


def _index(name):
    \"\"\"code -> entry of every function and method module ``name`` defines.\"\"\"
    index = {{}}
    for value in list(vars(sys.modules[name]).values()):
        cls = value if isinstance(value, type) else None
        for fn in list(vars(value).values()) if cls else [value]:
            if isinstance(fn, (staticmethod, classmethod)):
                fn = fn.__func__
            if isinstance(fn, FunctionType) and fn.__module__ == name:
                index[fn.__code__] = _entry(fn, cls)
    return index


def _lookup(frame):
    # By the frame's globals, not its file: a dataclass __init__ is generated
    # code whose co_filename is "<string>", but whose globals are its module's.
    name = frame.f_globals.get("__name__")
    if not frame.f_globals.get("__file__", "").startswith(_PREFIX) or name not in sys.modules:
        return None
    if frame.f_code not in _modules.get(name, ()):
        _modules[name] = _index(name)
    return _modules[name].get(frame.f_code)


def _differs(value, default):
    if value is default:
        return False
    if type(value) is not type(default) or not isinstance(default, _LITERALS):
        return True
    try:
        return bool(value != default)
    except Exception:  # a tuple of arrays, say: the hook must not raise into the run
        return True


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    _seen.add(code)
    if code not in _codes:
        _codes[code] = _lookup(frame)
    entry = _codes[code]
    # A generator's call event recurs at every resume, and only the first
    # entry holds the arguments: the body may have rebound them since.
    if entry is None or frame.f_lasti > entry[0]:
        return
    arguments = frame.f_locals
    for name, (key, default) in list(entry[1].items()):
        if _differs(arguments.get(name, default), default):
            _set.add(key)
            entry[1].pop(name, None)  # another rank thread may have popped it
    if not entry[1]:
        _codes[code] = None


def _dump():
    sys.setprofile(None)
    lines = sorted({{f"{{c.co_filename}}:{{c.co_firstlineno}}" for c in list(_seen)
                    if c.co_filename.startswith(_PREFIX)}})
    stem = os.path.join({out!r}, str(os.getpid()))
    with open(stem + ".txt", "a") as fh:
        fh.write("".join(line + "\\n" for line in lines))
    with open(stem + ".knobs", "a") as fh:
        fh.write("".join(key + "\\n" for key in sorted(_set)))


sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_dump)
"""


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _members(src: Path, package: str):
    """``(path, module, class or None, function node)`` per top-level
    function of ``src/package`` and method of its top-level classes, and
    ``(path, module, class, None)`` per top-level class."""
    for path in sorted((src / package).rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path, module, None, node
            elif isinstance(node, ast.ClassDef):
                yield path, module, node, None
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path, module, node, item


def definitions(src: Path, package: str) -> dict[tuple[str, int], str]:
    """``(path, first line)`` -> ``module:qualname`` for every top-level
    function of ``src/package`` and every method of its top-level classes.
    The first line is a code object's: the first decorator's, if any."""
    found = {}
    for path, module, cls, fn in _members(src, package):
        if fn is not None:
            line = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            qualname = fn.name if cls is None else f"{cls.name}.{fn.name}"
            found[(str(path), line)] = f"{module}:{qualname}"
    return found


def knobs(src: Path, package: str) -> set[str]:
    """The ``module:qualname.param`` of every *knob*: a defaulted parameter of
    a public function, of a public method or of a public class's ``__init__``
    (``module:Class.param``), or a defaulted field of a public dataclass."""
    found = set()
    for _, module, cls, fn in _members(src, package):
        if cls is not None and cls.name.startswith("_"):
            continue
        if fn is None and _is_dataclass(cls):
            found.update(f"{module}:{cls.name}.{item.target.id}" for item in cls.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                         and item.value is not None and not item.target.id.startswith("_")
                         and "ClassVar" not in ast.unparse(item.annotation))
        elif fn is not None and (fn.name == "__init__" or not fn.name.startswith("_")):
            qualname = fn.name if cls is None else f"{cls.name}.{fn.name}"
            owner = f"{module}:{qualname.removesuffix('.__init__')}"
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found.update(f"{owner}.{a.arg}" for a in defaulted)
    return found


def trace(commands: list[tuple[list[str], Path, int]], src: Path,
          scratch: Path) -> tuple[set[str], set[str]]:
    """Run each ``(argv, cwd, expected exit code)`` under the hook with
    ``src`` first after it on ``PYTHONPATH``. Return the ``path:line`` keys
    of every code object under ``src`` any process entered, and the keys of
    every knob under ``src`` any call set. Raises on a caller whose exit code
    differs."""
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
    def read(suffix):
        return {line for path in out.glob(f"*{suffix}") for line in path.read_text().split()}
    return read(".txt"), read(".knobs")


def unreached(src: Path, package: str, reached: set[str]) -> list[str]:
    """The ``module:qualname`` of every function no process entered."""
    return sorted({key for (path, line), key in definitions(src, package).items()
                   if f"{path}:{line}" not in reached})


def _record(knob: str) -> str:
    """``module:Class.*``, the :data:`KEEP` key of every field of a record."""
    return f"{knob.rsplit('.', 1)[0]}.*"


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


#: CI's strategy-matrix layouts (.github/workflows/ci.yml).
_LAYOUTS = [
    "--tp 2 --ep 2", "--zero 2 --ep 2", "--pp 2 --ep 2 --fp16", "--pp 2 --ep 1",
    "--ep 2 --overlap-chunks 2 --observe", "--ep 1", "--ep 4", "--world 2 --pp 2 --ep 1",
    "--ep 2 --overlap-chunks 2 --fp16", "--tp 2 --ep 2 --fp16", "--zero 2 --ep 2 --fp16",
    "--pp 2 --ep 2 --observe",
    "--tp 2 --ep 2 --overlap-chunks 2 --allreduce ring --alltoall hierarchical",
]


def caller_set(tree: Path, work: Path) -> list[tuple[list[str], Path, int]]:
    """Every caller of the audit, run in the copy ``tree`` from ``work``: the
    examples, each from a scratch directory; every CLI and benchmark command
    of CI's smokes with CI's flags (``tests/test_reach.py`` checks that
    against the workflow), plus ``train``, ``project``, ``configs`` and one
    run per group of options CI leaves at their defaults; the four
    ``bench/child.py --quick`` workloads at a non-zero seed, plain, traced
    and probed; and every ``benchmarks/bench_*.py`` under ``pytest
    --benchmark-disable`` (pytest-benchmark's instrumentation pause would
    otherwise clear the hook around each timed call)."""
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
         "plan_96k.md", "--metrics", "plan_96k.jsonl"],
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
        ["train", "--steps", "2", "--batch-size", "2", "--seq-len", "8", "--sample", "2",
         "--metrics", "train.jsonl"],
        ["project"],
        ["configs"],
        # Options CI's smokes leave at their defaults, each set once: a
        # pipeline's seed and algorithms, the planner's search bounds and
        # verification, the KV budget, the SLO and the network of a serving
        # run, a fleet's floor and timeout, and an elastic session's floor
        # and straggler.
        ["distributed", "--world", "4", "--steps", "2", "--batch-size", "2", "--seq-len", "8",
         "--pp", "2", "--ep", "2", "--seed", "1", "--allreduce", "tree", "--alltoall",
         "hierarchical"],
        ["plan", "--nodes", "8", "--max-tp", "2", "--max-zero", "4", "--batch-size", "2",
         "--microbatches", "4", "--top-k", "1", "--steps", "1", "--out", "plan_knobs.md"],
        ["serve", "--ep", "2", "--requests", "12", "--arrival-rate", "2000", "--kv-budget",
         "32", "--slo-ms", "2", "--supernode", "2", "--alltoall", "hierarchical", "--seed", "1"],
        ["serve", "--ep", "2", "--replicas", "2", "--autoscale", "--max-replicas", "3",
         "--requests", "12", "--arrival-rate", "2000", "--request-timeout-ms", "1"],
        ["resilient", "--world", "4", "--ep", "2", "--steps", "4", "--dead-node", "1",
         "--min-world", "2", "--straggler", "0:1.5"],
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
                 "--seed", "1", "--quick"]
        commands += [(child, tree, 0),
                     (child + ["--trace-out", str(work / f"trace-{workload}.json")], tree, 0),
                     (child + ["--probes", "--reference-op-s", "0.01"], tree, 0)]
    commands.append(([py, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider",
                      "--benchmark-disable"], tree, 0))
    return commands


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        tree = scratch / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.egg-info", ".pytest_cache", ".benchmarks"))
        src = tree / "src"
        try:
            reached, set_knobs = trace(caller_set(tree, scratch / "work"), src, scratch)
        except RuntimeError as err:
            print(f"reach: a caller failed: {err}")
            return 1
        total = len(set(definitions(src, "repro").values()))
        missing = unreached(src, "repro", reached)
        universe = knobs(src, "repro")
    unset = sorted(universe - set_knobs)
    kept = {key for key in missing if key in KEEP} | {
        knob for knob in unset if knob in KEEP or _record(knob) in KEEP}
    dead = [key for key in missing + unset if key not in kept]
    stale = sorted(set(KEEP) - set(missing) - set(unset) - {_record(k) for k in unset})
    print(f"reach: {total - len(missing)} of {total} functions reached, "
          f"{len(missing)} not ({len(kept & set(missing))} kept); "
          f"{len(universe) - len(unset)} of {len(universe)} knobs set, "
          f"{len(unset)} not ({len(kept & set(unset))} kept); "
          f"{time.perf_counter() - start:.0f} s")
    for key in dead:
        print(f"{'unset' if key in universe else 'unreached'}, not kept: {key}")
    for key in stale:
        print(f"kept, but reached, set or gone: {key}")
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main())
