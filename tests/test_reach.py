"""The execution reach audit, ``tools/reach.py`` (DESIGN §8, "src keeps what
a run reaches"), without running its caller set: the hook over a tiny
package, the caller set against CI's workflow, and its :data:`KEEP` list
against the live tree and the tests. CI's ``reach`` job runs the caller set
itself (about 7 minutes on two cores)."""

from __future__ import annotations

import ast
import importlib.util
import re
import shlex
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_a_function_entered_only_in_a_thread_counts_and_an_uncalled_one_is_reported(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "mod.py").write_text(textwrap.dedent("""\
        import functools
        import threading


        def in_thread():
            return 1


        @functools.cache
        def decorated():
            return 2


        def uncalled():
            return 3


        class Rank:
            def run(self):
                worker = threading.Thread(target=in_thread)
                worker.start()
                worker.join()
                return decorated()
        """))
    main = tmp_path / "main.py"
    main.write_text("from pkg.mod import Rank\nRank().run()\n")
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    reached = reach.trace([([sys.executable, str(main)], tmp_path, 0)], src, scratch)
    assert reach.unreached(src, "pkg", reached) == ["pkg.mod:uncalled"]


def test_keep_list_names_only_live_functions():
    """A kept function that has gone leaves the list (the tool itself also
    fails on a kept function that a run now reaches)."""
    live = set(reach.definitions(ROOT / "src", "repro").values())
    assert sorted(set(reach.KEEP) - live) == []


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


def _test_references() -> tuple[set[str], set[str]]:
    """The attribute names and the plain or imported names ``tests/`` uses."""
    attributes, names = set(), set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return attributes, names


def test_keep_reasons_that_cite_tests_name_what_tests_use():
    """A function kept as a test oracle or as a query tests ask must be named
    by the tests: as an attribute if it is a method (a local variable of the
    same name is no use of it), as a name otherwise."""
    attributes, names = _test_references()
    unused = []
    for key, reason in reach.KEEP.items():
        if reason not in (reach._ORACLE, reach._QUERY):
            continue
        qualname = key.split(":", 1)[1]
        name = qualname.rsplit(".", 1)[-1]
        if name not in (attributes if "." in qualname else names):
            unused.append(key)
    assert unused == []
