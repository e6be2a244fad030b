"""Every knob in ``src/repro`` is set by a caller (DESIGN §8, "src keeps what a
run reaches").

A *knob* is a parameter with a default on a public function or method, or a
dataclass field with a default. Each one must be set somewhere in the caller
trees — ``src/``, ``bench/``, ``benchmarks/``, ``examples/``, never
``tests/`` — or sit on :data:`KEEP` with the reason it stays. An argument
sets a knob only under three rules:

1. It is passed, by keyword or by position, at a call of the knob's own
   function or class: a call whose callee is that function's name (for a
   method, the method's name; for a class, its name or that of a subclass
   without an ``__init__`` of its own), ``super().__init__`` inside a
   subclass, ``cls(...)`` inside a classmethod, a class looked up in a
   module-level table (``cls = _GATES[name]``), ``functools.partial(f, ...)``,
   or a keyword that a ``**kwargs`` parameter forwards from the caller of the
   enclosing function. A keyword of ``replace(obj, ...)`` sets every
   dataclass field of that name.
2. An argument that only forwards a defaulted parameter of the enclosing
   function (``init_std=init_std``) sets the knob only if that parameter is
   set itself. This is resolved to a fixpoint.
3. An argument equal to the knob's own default literal sets nothing.

Callees still match by name, so the check is a floor: two methods that share
a name share their callers.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_TREES = ("src", "bench", "benchmarks", "examples")

_VIRTUAL_TIME_KILL = (
    "a kill scheduled in virtual time, which ROADMAP item 1 needs to place a crash "
    "independently of the thread scheduler"
)
_RUN_STATE = "run state the code fills in after construction, not a setting"
_ORACLE = "a tolerance of the finite-difference reference every op's backward is checked against"
_WALL_CLOCK = (
    "the wall-clock deadline of a world's rank threads: a deployment setting "
    "for slow hosts, not part of the modelled run"
)

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
    "repro.simmpi.faults:FaultPlan.kill_rank_at_op": (
        "filled in by kill_rank, which T7 and examples/fault_tolerance.py call, "
        "not by the constructor"
    ),
    "repro.simmpi.faults:FaultPlan.kill_rank_at_time": _VIRTUAL_TIME_KILL,
    "repro.serve.engine:ServeResult.*": _RUN_STATE,
    "repro.serve.fleet:FleetResult.*": _RUN_STATE,
    "repro.serve.router:ReplicaState.*": _RUN_STATE,
    "repro.serve.scheduler:Request.*": _RUN_STATE,
    "repro.simmpi.stats:TrafficStats.*": _RUN_STATE,
    "repro.train.trainer:StepResult.imbalance": (
        "run state: the step end assigns it after the result is built"
    ),
    **{
        f"repro.tensor.gradcheck:{knob}": _ORACLE
        for knob in ("numerical_grad.eps", "gradcheck.rtol", "gradcheck.atol", "gradcheck.eps")
    },
    "repro.obs.spans:Tracer.find.name": "the query tests ask of a finished run's span trees",
    "repro.obs.spans:Tracer.find.kind": "the query tests ask of a finished run's span trees",
    "repro.parallel.runner:TrainingRunConfig.timeout": _WALL_CLOCK,
    "repro.serve.engine:ServeConfig.timeout": _WALL_CLOCK,
    "repro.models.generate:generate.use_cache": (
        "the uncached decode the KV-cache tests check cached generation against"
    ),
}


# -- the caller trees, indexed ------------------------------------------------

_NOT_LITERAL = object()


def _literal(node: ast.expr | None):
    if node is None:
        return _NOT_LITERAL
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, RecursionError):
        return _NOT_LITERAL


def _is_default(arg: ast.expr, default: ast.expr | None) -> bool:
    """Rule 3: ``arg`` is the parameter's own default literal."""
    value, own = _literal(arg), _literal(default)
    return value is not _NOT_LITERAL and own is not _NOT_LITERAL and (
        type(value) is type(own) and value == own
    )


def _decorated(node: ast.FunctionDef, name: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in node.decorator_list)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef):
    """``(name, value or None)`` per dataclass field, in order."""
    for item in cls.body:
        if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)):
            yield item.target.id, item.value


def _field_default(value: ast.expr | None) -> ast.expr | None:
    """The default expression of a field's value: ``field(default=x)`` is x."""
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        return next((k.value for k in value.keywords if k.arg == "default"), None)
    return value


@dataclass
class _Signature:
    """What a call of one definition binds: a slot is ``(key, name)``, where
    ``key`` is the callee name the definition answers to."""

    key: str
    positional: list[str]
    defaults: dict[str, ast.expr | None]
    varkw: str | None = None
    #: The key of the class that declares each dataclass field.
    owner: dict[str, str] = field(default_factory=dict)

    def slot(self, name: str) -> tuple[str, str]:
        return self.owner.get(name, self.key), name


def _signature(key: str, fn: ast.FunctionDef, method: bool) -> _Signature:
    args = fn.args
    params = args.posonlyargs + args.args
    if method and not _decorated(fn, "staticmethod"):
        params = params[1:]
    defaults: dict[str, ast.expr | None] = {p.arg: None for p in params}
    defaults.update(zip((p.arg for p in params[len(params) - len(args.defaults):]),
                        args.defaults))
    defaults.update((p.arg, d) for p, d in zip(args.kwonlyargs, args.kw_defaults))
    return _Signature(key, [p.arg for p in params], defaults,
                      args.kwarg.arg if args.kwarg else None)


@dataclass
class _Class:
    bases: list[str]
    has_init: bool
    fields: list[tuple[str, ast.expr | None]] | None  # None: not a dataclass


@dataclass
class _Scope:
    """The function a call sits in."""

    sig: _Signature | None = None
    cls: str | None = None
    classmethod_: bool = False
    #: Defaulted parameters the function never rebinds: a bare name of one
    #: only forwards it (rule 2).
    forwardable: frozenset[str] = frozenset()
    #: Local names bound to a callee: ``issue = comm.ialltoall``,
    #: ``cls = _GATES[name]``.
    aliases: dict[str, list[str]] = field(default_factory=dict)
    #: Local dicts a call splats: ``base = dict(...)``, ``base.update(...)``.
    dicts: dict[str, list[ast.keyword]] = field(default_factory=dict)


@dataclass
class _Call:
    """One resolved call site: its callee keys, arguments and scope."""

    targets: list[str]
    args: list[ast.expr]
    keywords: list[ast.keyword]
    scope: _Scope


class _Index:
    def __init__(self, sources: list[str]):
        modules = [ast.parse(text) for text in sources]
        self.classes: dict[str, _Class] = {}
        self.tables: dict[str, list[str]] = {}
        for module in modules:
            for node in module.body:
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                        and all(isinstance(v, ast.Name) for v in node.value.values)):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.tables[target.id] = [v.id for v in node.value.values]
            for node in ast.walk(module):
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = _Class(
                        bases=[ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases],
                        has_init=any(isinstance(i, ast.FunctionDef) and i.name == "__init__"
                                     for i in node.body),
                        fields=list(_fields(node)) if _is_dataclass(node) else None,
                    )
        self.dataclasses = {name: self._dataclass_signature(name)
                            for name, info in self.classes.items() if info.fields is not None}
        self.signatures: dict[str, list[_Signature]] = {}
        for name, sig in self.dataclasses.items():
            if not self.classes[name].has_init:
                self._add(sig)
        self.calls: list[_Call] = []
        for module in modules:
            self._visit(module, _Scope())

    def _add(self, sig: _Signature) -> None:
        self.signatures.setdefault(sig.key, []).append(sig)

    def _dataclass_signature(self, name: str) -> _Signature:
        owner: dict[str, str] = {}
        defaults: dict[str, ast.expr | None] = {}
        for base in self.classes[name].bases:
            if base in self.classes and self.classes[base].fields is not None:
                inherited = self._dataclass_signature(base)
                owner.update(inherited.owner)
                defaults.update(inherited.defaults)
        for fname, value in self.classes[name].fields:
            owner[fname] = name
            defaults[fname] = _field_default(value)
        return _Signature(name, list(defaults), defaults, owner=owner)

    def class_targets(self, name: str) -> list[str]:
        """The keys a call of class ``name`` binds: its own ``__init__`` (or
        dataclass fields), else the ``__init__`` it inherits."""
        info = self.classes.get(name)
        if info is None or info.has_init or info.fields is not None:
            return [name]
        inherited = [k for b in info.bases if b in self.classes for k in self.class_targets(b)]
        return inherited or [name]

    # -- the walk --

    def _visit(self, node: ast.AST, scope: _Scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, _Scope(sig=scope.sig, cls=child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit(child, self._function_scope(child, scope.cls,
                                                        isinstance(node, ast.ClassDef)))
            else:
                if isinstance(child, ast.Call):
                    self._record(child, scope)
                self._visit(child, scope)

    def _function_scope(self, fn: ast.FunctionDef, cls: str | None, method: bool) -> _Scope:
        sig = _signature(cls if method and fn.name == "__init__" else fn.name, fn, method)
        self._add(sig)
        scope = _Scope(sig=sig, cls=cls, classmethod_=method and _decorated(fn, "classmethod"))
        rebound = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                rebound.add(node.id)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if isinstance(target, ast.Name):
                    if isinstance(value, ast.Dict):
                        scope.dicts[target.id] = [
                            ast.keyword(arg=k.value if k else None, value=v)
                            for k, v in zip(value.keys, value.values)
                            if k is None or isinstance(k, ast.Constant)
                        ]
                    elif isinstance(value, ast.Call) and ast.unparse(value.func) == "dict":
                        scope.dicts[target.id] = list(value.keywords)
                    else:
                        scope.aliases.setdefault(target.id, []).extend(self._callees(value))
        for node in ast.walk(fn):  # base.update(overrides), base["k"] = v
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "update" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in scope.dicts):
                scope.dicts[node.func.value.id] += [
                    ast.keyword(arg=None, value=a) for a in node.args] + node.keywords
            elif (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Subscript)
                  and isinstance(node.targets[0].value, ast.Name)
                  and node.targets[0].value.id in scope.dicts
                  and isinstance(node.targets[0].slice, ast.Constant)):
                scope.dicts[node.targets[0].value.id].append(
                    ast.keyword(arg=node.targets[0].slice.value, value=node.value))
        scope.forwardable = frozenset(
            p for p, d in sig.defaults.items() if d is not None and p not in rebound)
        return scope

    def _callees(self, value: ast.expr) -> list[str]:
        """The callee names a local bound to ``value`` may call."""
        if isinstance(value, ast.IfExp):
            return self._callees(value.body) + self._callees(value.orelse)
        if isinstance(value, ast.Attribute):
            return [value.attr]
        if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
            return self.tables.get(value.value.id, [])
        return []

    def _record(self, call: ast.Call, scope: _Scope) -> None:
        func, args = call.func, call.args
        if ast.unparse(func).rsplit(".", 1)[-1] == "partial" and args:
            func, args = args[0], args[1:]
        if isinstance(func, ast.Name):
            if func.id == "cls" and scope.classmethod_:
                names = [scope.cls]
            else:
                names = scope.aliases.get(func.id) or [func.id]
            targets = [k for name in names for k in self.class_targets(name)]
        elif isinstance(func, ast.Attribute):
            if (func.attr == "__init__" and isinstance(func.value, ast.Call)
                    and ast.unparse(func.value.func) == "super" and scope.cls in self.classes):
                targets = [k for b in self.classes[scope.cls].bases
                           for k in self.class_targets(b)]
            else:
                targets = self.class_targets(func.attr)
        else:
            return
        keywords = []
        for kw in call.keywords:
            if kw.arg is None and isinstance(kw.value, ast.Name) and kw.value.id in scope.dicts:
                keywords += scope.dicts[kw.value.id]
            else:
                keywords.append(kw)
        self.calls.append(_Call(targets, args, keywords, scope))

    # -- binding --

    def keyword_slots(self, targets: list[str], name: str):
        """``(slot, default)`` per parameter the keyword ``name`` binds; an
        extra keyword of a ``**kwargs`` function is the slot ``(key, "**name")``."""
        if targets == ["replace"]:
            for cls, sig in self.dataclasses.items():
                if sig.owner.get(name) == cls:
                    yield sig.slot(name), sig.defaults[name]
            return
        for key in targets:
            for sig in self.signatures.get(key, ()):
                if name in sig.defaults:
                    yield sig.slot(name), sig.defaults[name]
                elif sig.varkw is not None:
                    yield (key, f"**{name}"), None

    def bindings(self, call: _Call):
        """``(slot, condition)`` per argument of ``call`` that may set a
        parameter: ``condition`` is None, or the enclosing slot it forwards."""
        def condition(arg: ast.expr):
            if isinstance(arg, ast.Name) and arg.id in call.scope.forwardable:
                return call.scope.sig.slot(arg.id)
            return None

        for i, arg in enumerate(call.args):
            for key in call.targets:
                for sig in self.signatures.get(key, ()):
                    if isinstance(arg, ast.Starred):
                        for name in sig.positional[i:]:
                            yield sig.slot(name), None
                    elif i < len(sig.positional):
                        name = sig.positional[i]
                        if not _is_default(arg, sig.defaults[name]):
                            yield sig.slot(name), condition(arg)
            if isinstance(arg, ast.Starred):
                break
        for kw in call.keywords:
            if kw.arg is None:
                continue
            for slot, default in self.keyword_slots(call.targets, kw.arg):
                if not _is_default(kw.value, default):
                    yield slot, condition(kw.value)

    def splats(self, call: _Call) -> str | None:
        """The enclosing key whose extra keywords ``call`` forwards with
        ``**kwargs``, if it does."""
        sig = call.scope.sig
        for kw in call.keywords:
            if (kw.arg is None and sig is not None and sig.varkw is not None
                    and isinstance(kw.value, ast.Name) and kw.value.id == sig.varkw):
                return sig.key
        return None


def set_slots(sources: list[str]) -> set[tuple[str, str]]:
    """Every ``(callee key, parameter)`` some call in ``sources`` sets, to a
    fixpoint over forwarded parameters and ``**kwargs``."""
    index = _Index(sources)
    pending = [(slot, cond) for call in index.calls for slot, cond in index.bindings(call)]
    splats = [(key, call) for call in index.calls if (key := index.splats(call))]
    live: set[tuple[str, str]] = set()
    while True:
        grown = {slot for slot, cond in pending if cond is None or cond in live}
        for key, call in splats:
            for owner, name in live:
                if owner == key and name.startswith("**"):
                    grown.update(slot for slot, _ in index.keyword_slots(call.targets, name[2:]))
        if grown <= live:
            return live
        live |= grown


# -- the knobs ----------------------------------------------------------------


def _knobs(root: Path):
    """``(key, slot)`` per knob in src/repro."""
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield from _defaulted(module, node.name, node, node.name, method=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")
                    ):
                        init = item.name == "__init__"
                        key = node.name if init else item.name
                        qual = node.name if init else f"{node.name}.{item.name}"
                        yield from _defaulted(module, qual, item, key, method=True)
                if _is_dataclass(node):
                    for name, value in _fields(node):
                        if value is not None and not name.startswith("_"):
                            yield f"{module}:{node.name}.{name}", (node.name, name)


def _defaulted(module: str, qual: str, fn: ast.FunctionDef, key: str, method: bool):
    sig = _signature(key, fn, method)
    for name, default in sig.defaults.items():
        if default is not None:
            yield f"{module}:{qual}.{name}", (key, name)


def _sources(root: Path) -> list[str]:
    return [path.read_text() for tree in CALLER_TREES
            for path in sorted((root / tree).rglob("*.py"))]


@functools.cache
def unset_knobs(root: Path = ROOT) -> tuple[str, ...]:
    """Knobs no caller sets, whether or not :data:`KEEP` lists them."""
    live = set_slots(_sources(root))
    return tuple(key for key, slot in _knobs(root) if slot not in live)


def _kept(key: str) -> bool:
    return key in KEEP or f"{key.rsplit('.', 1)[0]}.*" in KEEP


def test_every_knob_has_a_caller_or_a_reason():
    assert [key for key in unset_knobs() if not _kept(key)] == []


def test_keep_list_names_only_live_knobs():
    """A kept knob that has gone (or gained a caller) leaves the list."""
    live = set(unset_knobs()) | {f"{key.rsplit('.', 1)[0]}.*" for key in unset_knobs()}
    assert sorted(set(KEEP) - live) == []


# -- the rules, on synthetic trees ---------------------------------------------

#: One knob per rule; ``tmp_path/src/repro/lib.py`` defines them.
_LIB = """
from dataclasses import dataclass

def per_callee(x, k=1): ...
def other(k=1): ...

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

def soft(x, axis=-1): ...
"""

#: The caller tree, ``tmp_path/examples/use.py``.
_USE = """
from repro.lib import Base, Child, Root, Top, factory, other, per_callee, soft

other(k=2)       # rule 1: sets other.k, not per_callee.k
per_callee(3)
Top()            # rule 2: Top -> Middle -> Leaf forwards an unset default...
Root(s=0.5)      # ...while Root's set value reaches Leaf
factory(width=4) # **overrides carries width to Cfg
Base.of(2)       # cls(...) in a classmethod calls Base
Child(k=2)       # super().__init__ calls Parent
soft(None, axis=-1)  # rule 3: its own default sets nothing
"""


def _tree(tmp_path: Path, use: str = _USE) -> Path:
    for rel, text in (("src/repro/lib.py", _LIB), ("examples/use.py", use)):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def _by_name_unset(root: Path) -> set[str]:
    """The audit before the rules: a knob is set if any call anywhere
    passes a keyword of its name, or enough positional arguments to a
    callee of its function's name."""
    keywords: set[str] = set()
    positional: dict[str, int] = {}
    for source in _sources(root):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                keywords.update(k.arg for k in node.keywords if k.arg)
                name = ast.unparse(node.func).rsplit(".", 1)[-1]
                positional[name] = max(positional.get(name, 0), len(node.args))
    signatures = _Index(_sources(root)).signatures
    unset = set()
    for key, (callee, param) in _knobs(root):
        index = signatures[callee][0].positional.index(param)
        if param not in keywords and positional.get(callee, 0) <= index:
            unset.add(key)
    return unset


def test_each_rule_on_a_synthetic_tree(tmp_path):
    """Leaf (through Root), Cfg.width (through **overrides), Base (through
    cls) and Parent (through super) are set; nothing else is."""
    assert set(unset_knobs(_tree(tmp_path))) == {
        "repro.lib:per_callee.k",  # rule 1: another function's keyword
        "repro.lib:Middle.std",    # rule 2: forwarded from Top's unset default
        "repro.lib:Top.std",
        "repro.lib:Cfg.depth",     # no call reaches it
        "repro.lib:soft.axis",     # rule 3: only its default is passed
    }


def test_forwards_and_default_literals_were_missed_by_name(tmp_path):
    root = _tree(tmp_path)
    missed = {"repro.lib:per_callee.k", "repro.lib:Middle.std", "repro.lib:Top.std",
              "repro.lib:soft.axis"}
    assert missed <= set(unset_knobs(root))
    assert missed.isdisjoint(_by_name_unset(root))


def test_a_chain_is_set_only_from_its_head(tmp_path):
    """Dropping ``Root(s=0.5)`` leaves Leaf without a setter: the only other
    call forwards Middle's unset default."""
    use = _USE.replace("Root(s=0.5)", "Root()")
    unset = set(unset_knobs(_tree(tmp_path, use)))
    assert {"repro.lib:Root.s", "repro.lib:Leaf.std"} <= unset
