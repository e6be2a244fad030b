"""Every public name in ``src/repro`` has a caller (DESIGN §8, "src keeps what
a run reaches").

The companion of ``tests/test_knob_audit.py`` one level up: where that audit
asks whether each defaulted parameter is passed, this one asks whether each
public function, class and method (methods of private classes too, since
their instances are handed out) is referred to at all. A reference is a
``Name``, an ``Attribute``, an imported name or a string constant anywhere in
the caller trees — ``src/``, ``bench/``, ``benchmarks/``, ``examples/``, never
``tests/``. Otherwise the name sits on :data:`KEEP` with the reason it stays.
Matching is by name, so the check is a floor: a method whose name some other
call or attribute shares, and a function a package ``__all__`` or re-export
names, are not caught.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "bench", "benchmarks", "examples")

_MPI_SURFACE = "part of Comm's mpi4py-shaped surface, kept so rank programs port unchanged"
_FAULT_HOOK = (
    "FaultPlan's scripted faults are the test hooks of the deadlock detector "
    "and the crash paths"
)
_OP_TABLE = "collective_seconds reaches it through getattr(net, f'{kind}_time')"
_ORACLE = (
    "tests use it to build the per-member reference the depth-generic closed "
    "forms are checked against"
)

#: ``module:Qualname`` -> why the name stays although no caller refers to it.
KEEP = {
    "repro.simmpi.comm:Comm.Get_rank": _MPI_SURFACE,
    "repro.simmpi.comm:Comm.Get_size": _MPI_SURFACE,
    "repro.simmpi.comm:_Request.test": _MPI_SURFACE,
    "repro.simmpi.comm:_RecvRequest.test": _MPI_SURFACE,
    "repro.simmpi.faults:FaultPlan.add_message_fault": _FAULT_HOOK,
    "repro.simmpi.faults:FaultPlan.kill_rank_at": _FAULT_HOOK,
    "repro.simmpi.context:RunContext.events_of": (
        "the query tests ask of a finished run's lifecycle events"
    ),
    "repro.obs.spans:Tracer.find": "the query tests ask of a finished run's span trees",
    **{
        f"repro.network.costmodel:NetworkModel.{kind}_time": _OP_TABLE
        for kind in ("bcast", "gather", "scatter", "reduce", "reduce_scatter")
    },
    "repro.network.topology:Topology.coords": _ORACLE,
    "repro.network.topology:Topology.group_of": _ORACLE,
    "repro.network.topology:Topology.num_levels": _ORACLE,
    "repro.tensor.tensor:Tensor.detach": (
        "test-only: the graph cut of the autograd surface; ROADMAP aim 2 lists "
        "it as the remaining known test-only leftover"
    ),
}


def _references(root: Path) -> set[str]:
    """Every name the caller trees refer to."""
    names: set[str] = set()
    for tree in CALLER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(root: Path):
    """``(key, name)`` per public function and class in src/repro, and per
    public method of any module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            if _public(node.name):
                yield f"{module}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and _public(item.name):
                        yield f"{module}:{node.name}.{item.name}", item.name


@functools.cache
def unreferenced_names(root: Path = ROOT) -> tuple[str, ...]:
    """Public names no caller refers to, whether or not :data:`KEEP` lists them."""
    used = _references(root)
    return tuple(key for key, name in _definitions(root) if name not in used)


def test_every_name_has_a_caller_or_a_reason():
    assert [key for key in unreferenced_names() if key not in KEEP] == []


def test_keep_list_names_only_live_names():
    """A kept name that has gone (or gained a caller) leaves the list."""
    assert sorted(set(KEEP) - set(unreferenced_names())) == []
