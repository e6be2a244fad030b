"""Every public name in ``src/repro`` has a caller (DESIGN §8, "src keeps what
a run reaches").

The companion of ``tests/test_knob_audit.py`` one level up: where that audit
asks whether each defaulted parameter is passed, this one asks whether each
public function, class and method (methods of private classes too, since
their instances are handed out) is referred to at all. A reference is a
``Name``, an ``Attribute``, an imported name or a string constant passed as
the name argument of ``getattr``, ``hasattr``, ``setattr`` or ``delattr``
anywhere in the caller trees — ``src/``, ``bench/``, ``benchmarks/``,
``examples/``, never ``tests/``. Any other string (a metric name, a dict
key) names nothing. Naming a function in ``__all__``, or re-importing it in a
package ``__init__`` or ``api.py``, hands the name out and is not a
reference. Otherwise the name sits on :data:`KEEP` with the reason it stays.
Matching is by name, so the check is a floor: a method whose name some other
call or attribute shares is not caught.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "bench", "benchmarks", "examples")

_VIRTUAL_TIME_KILL = (
    "a kill scheduled in virtual time, which ROADMAP item 1 needs to place a crash "
    "independently of the thread scheduler"
)
_OP_TABLE = "collective_seconds reaches it through getattr(net, f'{kind}_time')"
_ORACLE = (
    "tests use it to build the per-member reference the depth-generic closed "
    "forms are checked against"
)
_FIXTURE_TOPOLOGY = (
    "a closed-form oracle: tests build this fixture topology to check the "
    "depth-generic collective costs against"
)

#: The builtins whose second argument names an attribute.
_BY_NAME = frozenset({"getattr", "hasattr", "setattr", "delattr"})

#: ``module:Qualname`` -> why the name stays although no caller refers to it.
KEEP = {
    "repro.simmpi.faults:FaultPlan.kill_rank_at": _VIRTUAL_TIME_KILL,
    "repro.simmpi.context:RunContext.events_of": (
        "the query tests ask of a finished run's lifecycle events"
    ),
    "repro.obs.spans:Tracer.find": "the query tests ask of a finished run's span trees",
    **{
        f"repro.network.costmodel:NetworkModel.{kind}_time": _OP_TABLE
        for kind in ("bcast", "gather")
    },
    "repro.network.topology:Topology.coords": _ORACLE,
    "repro.network.topology:Topology.group_of": _ORACLE,
    "repro.network.topology:Topology.num_levels": _ORACLE,
    "repro.tensor.gradcheck:gradcheck": (
        "the test reference every op's backward is checked against"
    ),
    "repro.network.presets:cabinet_topology": _FIXTURE_TOPOLOGY,
    "repro.network.presets:two_level_topology": _FIXTURE_TOPOLOGY,
    "repro.simmpi.hier:hierarchical_alltoall": (
        "proves that the hierarchical alltoall the cost model prices moves the "
        "right data; ROADMAP item 20 gives it a caller or deletes it"
    ),
}


def _exported(stmt: ast.stmt) -> bool:
    """``__all__ = [...]``: a list of names handed out, not used."""
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def _references(root: Path) -> set[str]:
    """Every name the caller trees refer to, less ``__all__`` entries and the
    imports of a package ``__init__`` or ``api.py``, which re-export."""
    names: set[str] = set()
    for tree in CALLER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            module = ast.parse(path.read_text())
            reexports = path.name in ("__init__.py", "api.py")
            for stmt in module.body:
                if _exported(stmt):
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, (ast.Import, ast.ImportFrom)):
                        if not reexports:
                            names.update(a.name.rsplit(".", 1)[-1] for a in node.names)
                    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id in _BY_NAME and len(node.args) > 1
                          and isinstance(node.args[1], ast.Constant)
                          and isinstance(node.args[1].value, str)):
                        names.add(node.args[1].value)
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


def test_a_string_names_a_function_only_as_the_name_argument_of_getattr(tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        "def by_string():\n    pass\n\n\ndef by_getattr():\n    pass\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "caller.py").write_text(
        "import repro.mod as m\n"
        "TABLE = {'by_string': 1}\n"
        "getattr(m, 'by_getattr')()\n"
    )
    assert unreferenced_names(tmp_path) == ("repro.mod:by_string",)
