"""Every public class in ``src/repro`` has a caller (DESIGN §8, "src keeps what
a run reaches").

``tools/reach.py`` audits functions, methods and knobs by running the callers,
but a profile hook sees code being entered, and a class is not entered: a
class whose instances nothing builds, or whose only use is an annotation,
leaves no trace there. So this check stays static. A reference is a
``Name``, an ``Attribute``, an imported name or a string constant passed as
the name argument of ``getattr``, ``hasattr``, ``setattr`` or ``delattr``
anywhere in the caller trees — ``src/``, ``bench/``, ``benchmarks/``,
``examples/``, never ``tests/``. Any other string (a metric name, a dict
key) names nothing. Naming a class in ``__all__``, or re-importing it in a
package ``__init__`` or ``api.py``, hands the name out and is not a
reference. Matching is by name, so the check is a floor.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "bench", "benchmarks", "examples")

#: The builtins whose second argument names an attribute.
_BY_NAME = frozenset({"getattr", "hasattr", "setattr", "delattr"})


def _references(root: Path) -> set[str]:
    """Every name the caller trees refer to, less ``__all__`` entries and the
    imports of a package ``__init__`` or ``api.py``, which re-export."""
    names: set[str] = set()
    for tree in CALLER_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            module = ast.parse(path.read_text())
            reexports = path.name in ("__init__.py", "api.py")
            for stmt in module.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                    continue  # names handed out, not used
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


def unreferenced_classes(root: Path = ROOT) -> tuple[str, ...]:
    """``module:Class`` of every public module-level class in src/repro that
    no caller refers to."""
    used = _references(root)
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and node.name not in used):
                found.append(f"{module}:{node.name}")
    return tuple(found)


def test_every_name_has_a_caller_or_a_reason():
    """Every public class has a caller; no reason keeps one that has none."""
    assert unreferenced_classes() == ()


def test_keep_list_names_only_live_names():
    """Every class of whose members ``tools/reach.py`` keeps one (a method or
    a knob) has a caller, private classes too: a kept member of a class that
    nothing refers to would outlive its class."""
    from tests.test_reach import reach

    classes = {f"{module}:{cls.name}": cls.name
               for _, module, cls, fn in reach._members(ROOT / "src", "repro") if fn is None}
    owners = set()
    for key in reach.KEEP:
        module, qualname = key.split(":", 1)
        if "." in qualname:
            owners.add(f"{module}:{qualname.split('.', 1)[0]}")
    used = _references(ROOT)
    assert owners & set(classes)  # the table keeps members of classes
    assert sorted(key for key in owners & set(classes) if classes[key] not in used) == []


def test_a_string_names_a_function_only_as_the_name_argument_of_getattr(tmp_path):
    """The rule holds for any name; the audit applies it to classes."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text(
        "class ByString:\n    pass\n\n\nclass ByGetattr:\n    pass\n"
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "caller.py").write_text(
        "import repro.mod as m\n"
        "TABLE = {'ByString': 1}\n"
        "getattr(m, 'ByGetattr')()\n"
    )
    assert unreferenced_classes(tmp_path) == ("repro.mod:ByString",)
