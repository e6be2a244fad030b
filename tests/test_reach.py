"""The execution reach audit, ``tools/reach.py`` (DESIGN §8, "src keeps what
a run reaches"), without running its caller set: the hook over a tiny
package (functions entered; ``test_knob_audit`` checks the knobs it sets on
the same package), the caller set against CI's workflow, and its
:data:`KEEP` table against the live tree and the tests.
CI's ``reach`` job runs the caller set itself (about 4 minutes on two
cores)."""

from __future__ import annotations

import ast
import importlib.util
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


#: A synthetic ``src/repro/lib.py``: functions to enter (one only in a
#: thread, one through a cache decorator, one never) and one knob per case.
_LIB = """
import functools
import threading
from dataclasses import dataclass

def in_thread(): ...
@functools.cache
def decorated(): ...
def uncalled(): ...
class Rank:
    def run(self):
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join()
        return decorated()

def per_callee(x, k=1): ...
def other(k=1): ...
def soft(x, axis=-1): ...
def with_partial(x, k=1): ...

class Leaf:
    def __init__(self, std=0.02): ...
class Middle:
    def __init__(self, std=0.02):
        Leaf(std=std)
class Top:
    def __init__(self, std=0.02):
        Middle(std=std)
class Root:
    def __init__(self, s=0.02):
        Leaf(std=s)

@dataclass
class Cfg:
    width: int = 1
    depth: int = 1
def factory(**overrides):
    return Cfg(**overrides)

class Base:
    def __init__(self, k=1): ...
    @classmethod
    def of(cls, value):
        return cls(k=value)
class Parent:
    def __init__(self, k=1): ...
class Child(Parent):
    def __init__(self, k=1):
        super().__init__(k=k)

class First:
    def shared(self, k=1): ...
class Second:
    def shared(self, k=1): ...

def named(items, prefix=""):
    for item in items:
        yield prefix + item
def counter(n, step=1):
    i = 0
    while i < n:
        yield i
        step = step + 1
        i += step
"""

#: The caller, ``main.py``.
_USE = """
from functools import partial
from repro.lib import *

Rank().run()
other(k=2)            # sets other.k, not per_callee.k
per_callee(3)
Top()                 # Top -> Middle -> Leaf forwards an unset default...
Root(s=0.5)           # ...while Root's set value reaches Leaf
factory(width=4)      # **overrides carries width to the dataclass
Base.of(2)            # cls(...) in a classmethod calls Base
Child(k=2)            # super().__init__ calls Parent
soft(None, axis=-1)   # its own default sets nothing
partial(with_partial, 1)()
Second().shared(k=3)  # sets Second.shared.k, not First's
First().shared()
list(named(["a"], prefix="p."))  # a generator's knob is read at its first entry...
list(counter(9))                 # ...not at a resume after the body rebinds it
"""


def _run(tmp_path: Path, use: str = _USE) -> tuple[list[str], set[str]]:
    """The functions of ``_LIB`` a run of ``use`` leaves unreached, and the
    knobs it leaves at their defaults."""
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "lib.py").write_text(_LIB)
    main = tmp_path / "main.py"
    main.write_text(use)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    reached, set_knobs = reach.trace([([sys.executable, str(main)], tmp_path, 0)], src, scratch)
    return reach.unreached(src, "repro", reached), reach.knobs(src, "repro") - set_knobs


def test_a_function_entered_only_in_a_thread_counts_and_an_uncalled_one_is_reported(tmp_path):
    assert _run(tmp_path)[0] == ["repro.lib:uncalled"]


def _members() -> tuple[set[str], set[str]]:
    """The ``module:qualname`` of every function and method of the live tree,
    and of every top-level class."""
    functions = set(reach.definitions(ROOT / "src", "repro").values())
    classes = {f"{module}:{cls.name}"
               for _, module, cls, fn in reach._members(ROOT / "src", "repro") if fn is None}
    return functions, classes


def test_keep_list_names_only_live_functions():
    """Every kept key names a function of the live tree, or a member of one
    of its functions or classes: a kept function that has gone leaves the
    table (the tool itself also fails on a kept one that a run now
    reaches). ``test_knob_audit`` checks that each kept member that is no
    function is a knob."""
    functions, classes = _members()
    owners = functions | classes
    assert sorted(key for key in reach.KEEP
                  if key not in functions and key.rsplit(".", 1)[0] not in owners) == []


#: Where a CI command ends and the shell takes over again.
_SHELL = frozenset({">", "2>", "||", "&&", ";", "|"})
#: A token naming a file: the value of a path option, or a positional name
#: with an artefact suffix (``report run_a.jsonl``).
_PATH_OPTIONS = frozenset({"--out", "--metrics", "--trace", "--span-dump", "--checkpoint-dir"})
_ARTEFACT = re.compile(r"\.(jsonl|json|md|txt)$")


def _normalized(args: list[str]) -> tuple[str, ...]:
    """``args`` with every file name replaced by ``FILE``."""
    out = []
    for i, arg in enumerate(args):
        named = (i and args[i - 1] in _PATH_OPTIONS) or _ARTEFACT.search(arg)
        out.append("FILE" if named else arg)
    return tuple(out)


def _ci_invocations() -> set[tuple[str, ...]]:
    """Every ``python -m repro.cli`` and ``python benchmarks/bench_*.py`` command
    of the CI workflow, as ``(entry, *args)`` with file names normalized and
    the strategy matrix's ``$layout`` expanded."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text().replace("\\\n", " ")
    layouts = shlex.split(re.search(r"for layout in (.+?); do", text).group(1))
    commands = set()
    for line in text.splitlines():
        found = re.search(r"python (-m repro\.cli|benchmarks/bench_\w+\.py) (.*)", line)
        if found is None or line.lstrip().startswith("#"):
            continue
        entry = "repro.cli" if found.group(1) == "-m repro.cli" else found.group(1)
        tokens = shlex.split(found.group(2))
        tokens = tokens[:next((i for i, t in enumerate(tokens) if t in _SHELL), len(tokens))]
        for layout in layouts if "$layout" in tokens else [None]:
            args = [arg for t in tokens
                    for arg in (layout.split() if t == "$layout" else [t])]
            commands.add((entry, *_normalized(args)))
    return commands


def _caller_invocations() -> set[tuple[str, ...]]:
    """The same form of every command of ``reach.caller_set``."""
    commands = set()
    for argv, _, _ in reach.caller_set(ROOT, ROOT / "work"):
        if argv[1:3] == ["-m", "repro.cli"]:
            commands.add(("repro.cli", *_normalized(argv[3:])))
        elif Path(argv[1]).parent == ROOT / "benchmarks":
            commands.add((f"benchmarks/{Path(argv[1]).name}", *_normalized(argv[2:])))
    return commands


def test_caller_set_runs_every_cli_and_benchmark_command_ci_runs():
    """A CI command the audit does not run (a flag left off, say) leaves the
    code behind that flag looking unreached, so the audit would keep or
    delete it on false evidence."""
    ci = _ci_invocations()
    assert len(ci) > 20  # the parser found the smokes
    assert sorted(ci - _caller_invocations()) == []


def _test_references() -> tuple[set[str], set[str], set[str]]:
    """The attribute names, the plain or imported names and the keywords
    ``tests/`` uses."""
    attributes, names, keywords = set(), set(), set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.keyword):
                keywords.add(node.arg)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return attributes, names, keywords


def test_keep_reasons_that_cite_tests_name_what_tests_use():
    """A function kept as a test oracle or as a query tests ask must be named
    by the tests: as an attribute if it is a method (a local variable of the
    same name is no use of it), as a name otherwise. A knob kept so must be
    a keyword some test passes."""
    attributes, names, keywords = _test_references()
    knobs = reach.knobs(ROOT / "src", "repro")
    unused = []
    for key, reason in reach.KEEP.items():
        if reason not in (reach._ORACLE, reach._QUERY):
            continue
        qualname = key.split(":", 1)[1]
        name = qualname.rsplit(".", 1)[-1]
        used = keywords if key in knobs else attributes if "." in qualname else names
        if name not in used:
            unused.append(key)
    assert unused == []
