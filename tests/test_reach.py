"""The execution reach audit, ``tools/reach.py`` (DESIGN §8, "src keeps what
a run reaches"), without its caller set: the hook over a tiny package, and
its :data:`KEEP` list against the live tree. CI's ``reach`` job runs the
caller set itself (about 20 minutes)."""

from __future__ import annotations

import importlib.util
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
