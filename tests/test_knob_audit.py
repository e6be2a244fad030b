"""The knob half of the execution reach audit, ``tools/reach.py`` (DESIGN §8,
"src keeps what a run reaches"): which knobs a run sets, on the synthetic
package of ``test_reach`` (one knob per case), and the kept knobs of its
:data:`KEEP` table against the live tree.

A *knob* is a defaulted parameter of a public function or method, or a
defaulted field of a public dataclass. A run sets one only by passing it a
value other than its default at a call of its own function, so a keyword of
the same name passed to another function, a forward of an unset default and
the default literal itself set nothing: the cases a name-matching audit
could not tell apart.
"""

from __future__ import annotations

import ast

from tests.test_reach import _LIB, _USE, ROOT, _members, _run, reach


def test_each_rule_on_a_synthetic_tree(tmp_path):
    """Leaf (through Root), Cfg.width (through ``**overrides`` into a
    generated ``__init__``), Base (through ``cls``), Parent (through
    ``super``), Second.shared and a generator's argument are set; a knob
    whose keyword another function or method receives, a forward of an
    unset default and a knob's own default literal set nothing."""
    assert _run(tmp_path)[1] == {
        "repro.lib:per_callee.k",     # another function's keyword
        "repro.lib:Middle.std",       # forwarded from Top's unset default
        "repro.lib:Top.std",
        "repro.lib:Cfg.depth",        # no call reaches it
        "repro.lib:soft.axis",        # only its default is passed
        "repro.lib:with_partial.k",   # the partial binds x only
        "repro.lib:First.shared.k",   # Second's method shares the name
        "repro.lib:counter.step",     # rebound after the first entry
    }


def test_forwards_and_default_literals_were_missed_by_name(tmp_path):
    """Each knob here is unset although a call of the run passes a keyword
    of its name, so matching callers by name would count it set."""
    missed = {"repro.lib:per_callee.k", "repro.lib:Middle.std", "repro.lib:Top.std",
              "repro.lib:soft.axis", "repro.lib:First.shared.k"}
    keywords = {node.arg for source in (_LIB, _USE) for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.keyword)}
    assert {knob.rsplit(".", 1)[1] for knob in missed} <= keywords
    assert missed <= _run(tmp_path)[1]


def test_a_chain_is_set_only_from_its_head(tmp_path):
    """Dropping ``Root(s=0.5)`` leaves Leaf without a setter: the only other
    call forwards Middle's unset default."""
    unset = _run(tmp_path, _USE.replace("Root(s=0.5)", "Root()"))[1]
    assert {"repro.lib:Root.s", "repro.lib:Leaf.std"} <= unset


def test_keep_list_names_only_live_knobs():
    """Every kept member of a live function or class that is no function
    names a knob of it, or is ``Class.*`` for a record of run state with
    defaulted fields: a parameter that has gone, or lost its default, leaves
    the table (the tool itself also fails on a kept one that a run now
    sets)."""
    functions, classes = _members()
    knobs = reach.knobs(ROOT / "src", "repro")
    kept = {key for key in reach.KEEP
            if key not in functions and key.rsplit(".", 1)[0] in functions | classes}
    assert kept  # the table keeps knobs
    assert sorted(kept - knobs - {reach._record(knob) for knob in knobs}) == []
