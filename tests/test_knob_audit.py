"""Every knob in ``src/repro`` has a caller (DESIGN §8, "src keeps what a run
reaches").

A *knob* is a parameter with a default on a public function or method, or a
dataclass field with a default. Each one must be set somewhere in the caller
trees — ``src/``, ``bench/``, ``benchmarks/``, ``examples/``, never
``tests/`` — either by keyword (``name=`` at any call) or positionally (a
call to a function or class of the same name that passes enough positional
arguments to reach it). Otherwise it sits on :data:`KEEP` with the reason it
stays. Matching is by name, so the check is a floor: a knob whose name some
other call happens to pass is not caught.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "bench", "benchmarks", "examples")

_FAULT_HOOK = (
    "FaultPlan's scripted faults are the test hooks of the deadlock detector "
    "and the crash paths"
)
_RUN_STATE = "run state the code fills in after construction, not a setting"

#: ``module:Qualname.param`` (or ``module:Class.*`` for a record of run
#: state) -> why the knob stays although no caller sets it.
KEEP = {
    "repro.cli:main.argv": "tests drive the CLI in-process; the console entry point passes none",
    "repro.network.collectives:cost_hierarchical_allreduce.level": (
        "tests price every span level of the depth-generic closed form against "
        "the per-member reference"
    ),
    "repro.network.collectives:cost_hierarchical_alltoall.level": (
        "tests price every span level of the depth-generic closed form against "
        "the per-member reference"
    ),
    **{
        f"repro.network.presets:cabinet_topology.{arity}": (
            "a fixture topology the tests of the depth-generic closed forms build"
        )
        for arity in ("nodes_per_supernode", "supernodes_per_cabinet", "num_cabinets",
                      "intra", "inter", "trunk")
    },
    **{
        f"repro.network.presets:two_level_topology.{link}": (
            "a fixture topology the tests of the depth-generic closed forms build"
        )
        for link in ("intra", "inter")
    },
    "repro.simmpi.faults:MessageFault.match_index": _FAULT_HOOK,
    "repro.simmpi.faults:MessageFault.drop": _FAULT_HOOK,
    "repro.simmpi.faults:MessageFault.delay": _FAULT_HOOK,
    "repro.simmpi.faults:FaultPlan.message_faults": _FAULT_HOOK,
    "repro.simmpi.faults:FaultPlan.kill_rank_at_op": _FAULT_HOOK,
    "repro.simmpi.faults:FaultPlan.kill_rank_at_time": _FAULT_HOOK,
    "repro.serve.engine:ServeResult.*": _RUN_STATE,
    "repro.serve.fleet:FleetResult.*": _RUN_STATE,
    "repro.serve.router:ReplicaState.*": _RUN_STATE,
    "repro.serve.scheduler:Request.*": _RUN_STATE,
    "repro.simmpi.stats:TrafficStats.*": _RUN_STATE,
}


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _caller_usage(root: Path) -> tuple[set[str], dict[str, float]]:
    """Keywords passed anywhere, and the most positional arguments any call
    of each callee name passes (``inf`` past a ``*args``)."""
    keywords: set[str] = set()
    positional: dict[str, float] = {}
    for tree in CALLER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                keywords.update(k.arg for k in node.keywords if k.arg)
                name = _callee(node)
                if name is not None:
                    count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                             else len(node.args))
                    positional[name] = max(positional.get(name, 0), count)
    return keywords, positional


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _knobs(root: Path):
    """``(key, callee name, positional index or None)`` per knob in src/repro."""
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield from _defaulted(module, node.name, node, node.name, skip=0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                index = 0
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")
                    ):
                        callee = node.name if item.name == "__init__" else item.name
                        qual = node.name if item.name == "__init__" else f"{node.name}.{item.name}"
                        yield from _defaulted(module, qual, item, callee, skip=1)
                    elif (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)
                          and "ClassVar" not in ast.unparse(item.annotation)):
                        name = item.target.id
                        if item.value is not None and not name.startswith("_"):
                            yield f"{module}:{node.name}.{name}", node.name, index
                        index += 1


def _defaulted(module: str, qual: str, fn: ast.FunctionDef, callee: str, skip: int):
    args = fn.args
    params = (args.posonlyargs + args.args)[skip:]
    first_default = len(params) - len(args.defaults)
    for i, param in enumerate(params):
        if i >= first_default:
            yield f"{module}:{qual}.{param.arg}", callee, i
    for param, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{module}:{qual}.{param.arg}", callee, None


@functools.cache
def uncalled_knobs(root: Path = ROOT) -> tuple[str, ...]:
    """Knobs no caller sets, whether or not :data:`KEEP` lists them."""
    keywords, positional = _caller_usage(root)
    return tuple(
        key for key, callee, index in _knobs(root)
        if key.rsplit(".", 1)[1] not in keywords
        and (index is None or positional.get(callee, 0) <= index)
    )


def _kept(key: str) -> bool:
    return key in KEEP or f"{key.rsplit('.', 1)[0]}.*" in KEEP


def test_every_knob_has_a_caller_or_a_reason():
    assert [key for key in uncalled_knobs() if not _kept(key)] == []


def test_keep_list_names_only_live_knobs():
    """A kept knob that has gone (or gained a caller) leaves the list."""
    live = set(uncalled_knobs()) | {f"{key.rsplit('.', 1)[0]}.*" for key in uncalled_knobs()}
    assert sorted(set(KEEP) - live) == []
