"""A forward graph holds what backward reads, and dies with the backward
that used it.

An op's output tensor holds a private node; the node holds the backward
closure and its parents' nodes, and a leaf is its own node. A closure keeps
arrays, never a non-leaf tensor, so an intermediate nothing reads is freed
during the forward. ``Tensor.backward`` consumes the graph it walks: a
visited node gives up its parents and its closure, so a rank holds one
step's activations, not two. Checked here: what is gone afterwards and what
is intact, the error a second backward gets, that ``retain_graph=True`` is
today's two-pass accumulation bit for bit, that no closure of any strategy's
graph holds a non-leaf tensor, that no strategy's trainer keeps a graph
across ``train_step``, and the traced-memory profile of a step.
"""

import gc
import hashlib
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from repro.errors import AutogradError
from repro.hardware import sunway_machine
from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig
from repro.simmpi import run_spmd
from repro.tensor import Tensor, checkpoint, gelu, quantize, softmax
from repro.tensor.tensor import _consumed, _Node
from tests.test_pinned_trajectories import PLATFORM, _platform
from tests.test_strategies import CASES


def _node(t: Tensor):
    """``t``'s graph node: itself for a leaf, else its op's (None if untracked)."""
    return t if t.requires_grad else t._node


def _parents(node) -> tuple:
    return node.parents if isinstance(node, _Node) else ()


def _retaining_backward(root: Tensor, grad: np.ndarray) -> None:
    """``Tensor.backward`` as it was before it consumed the graph, over nodes."""
    start = _node(root)
    topo, visited, stack = [], set(), [(start, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in _parents(node):
            if p is not None and id(p) not in visited:
                stack.append((p, False))
    grads = {id(start): grad}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not isinstance(node, _Node):
            node._accumulate(g)
            continue
        for parent, pg in zip(node.parents, node.backward(g)):
            if pg is None or parent is None:
                continue
            grads[id(parent)] = grads[id(parent)] + pg if id(parent) in grads else pg


def _ancestors(root: Tensor) -> list:
    """Every node reachable from ``root``: op nodes and leaves."""
    start = _node(root)
    seen, stack, out = {id(start)}, [start], []
    while stack:
        node = stack.pop()
        out.append(node)
        for p in _parents(node):
            if p is not None and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return out


def _two_heads(dtype: str):
    """Leaves, and two scalar heads over a shared subgraph (reused nodes, a fan-in)."""
    rng = np.random.default_rng(11)
    a = Tensor(rng.standard_normal((5, 4)), requires_grad=True, dtype=dtype)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True, dtype=dtype)
    c = Tensor(rng.standard_normal((3,)), requires_grad=True, dtype=dtype)
    h = gelu(a @ b) + c             # shared by both heads
    main = (h * h).transpose().reshape(-1).sum()
    aux = (gelu(h) * c).mean() + (a * a).sum()
    return [a, b, c], main, aux


@pytest.mark.parametrize("dtype", ["fp16", "bf16", "fp32"])
def test_backward_consumes_every_node_it_could_reach_and_leaves_the_gradients(dtype):
    leaves, main, aux = _two_heads(dtype)
    loss = main + aux
    nodes = _ancestors(loss)
    assert sum(bool(_parents(n)) for n in nodes) > 10
    loss.backward()
    for node in nodes:
        assert _parents(node) == ()
        assert isinstance(node, _Node) != any(node is leaf for leaf in leaves)
        assert not isinstance(node, _Node) or node.backward is _consumed
    assert all(leaf.requires_grad and leaf.grad is not None for leaf in leaves)

    twins, main2, aux2 = _two_heads(dtype)
    _retaining_backward(main2 + aux2, np.ones_like(loss.data))
    for leaf, twin in zip(leaves, twins):
        assert leaf.grad.tobytes() == twin.grad.tobytes()
    # A consumed node is a plain value from then on: new ops do not track it.
    assert (loss * 2.0)._node is None
    assert float(loss.item()) == float((main2 + aux2).item())


def test_a_node_no_gradient_reached_is_consumed_too():
    a = Tensor(np.ones(3), requires_grad=True)
    left, right = a * 2.0, a * 3.0
    fork = Tensor(left.data, _parents=(left, right), _backward=lambda g: (g, None))
    fork.backward()
    assert right._node.parents == () and left._node.parents == ()
    assert a.grad.tolist() == [2.0, 2.0, 2.0]
    with pytest.raises(AutogradError):
        right.backward()


def test_second_backward_through_a_consumed_node_names_retain_graph():
    leaves, main, aux = _two_heads("fp32")
    main.backward()
    with pytest.raises(AutogradError, match="retain_graph=True"):
        main.backward()
    # The pipeline shape: another head over nodes the first backward consumed
    # must fail loudly, not lose the gradient below the shared nodes.
    with pytest.raises(AutogradError, match="retain_graph=True"):
        aux.backward()


@pytest.mark.parametrize("dtype", ["fp16", "fp32"])
def test_retain_graph_is_the_two_pass_accumulation_bit_for_bit(dtype):
    leaves, main, aux = _two_heads(dtype)
    seed = quantize(np.asarray(0.5), dtype)
    main.backward(retain_graph=True)
    assert any(_parents(n) for n in _ancestors(main))
    aux.backward(seed)

    twins, main2, aux2 = _two_heads(dtype)
    _retaining_backward(main2, np.ones_like(main2.data))
    _retaining_backward(aux2, seed)
    for leaf, twin in zip(leaves, twins):
        assert leaf.grad.tobytes() == twin.grad.tobytes()
    # The second, consuming pass took what it reached; what only ``main``
    # reached is still there for whoever asked to retain it.
    assert all(_parents(n) == () for n in _ancestors(aux))
    assert main._node.parents != ()


def test_checkpointed_segment_replays_inside_a_consuming_backward():
    w = Tensor(np.full((3, 3), 0.5), requires_grad=True)
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    out = checkpoint(lambda t: gelu(t @ w), x)
    (out * out).sum().backward()
    plain_w = Tensor(np.full((3, 3), 0.5), requires_grad=True)
    plain_x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = gelu(plain_x @ plain_w)
    (y * y).sum().backward()
    assert w.grad.tobytes() == plain_w.grad.tobytes()
    assert x.grad.tobytes() == plain_x.grad.tobytes()
    assert out._node.parents == ()


# --------------------------------------------------------------------- #
# What a closure keeps: arrays, never a non-leaf tensor
# --------------------------------------------------------------------- #

def _captured(node: _Node) -> list:
    """What ``node``'s closure cells hold, with tuples, lists and dicts opened."""
    found, stack = [], [c.cell_contents for c in node.backward.__closure__ or ()]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        else:
            found.append(obj)
    return found


def _op_nodes(root: Tensor) -> list[_Node]:
    return [n for n in _ancestors(root) if isinstance(n, _Node)]


def _one_step(comm, cfg, machine):
    cfg.resolve_strategy().build(comm, cfg, machine).train_step(0)


_CLOSURE_CASES = {
    **CASES,
    "moda_recompute": dict(model=tiny_config(recompute=True), ep_size=2),
}


@pytest.mark.parametrize("name", sorted(_CLOSURE_CASES))
def test_no_closure_holds_a_non_leaf_tensor(name, monkeypatch):
    cfg = TrainingRunConfig(world_size=4, num_steps=1, mixed_precision=True,
                            **_CLOSURE_CASES[name])
    seen = []  # per backward call: (thread, op nodes, non-leaf tensors held)
    plain = Tensor.backward

    def spy(self, *args, **kwargs):
        nodes = _op_nodes(self)
        held = [obj for n in nodes for obj in _captured(n)
                if isinstance(obj, Tensor) and not obj.requires_grad]
        seen.append((threading.get_ident(), len(nodes), len(held)))
        return plain(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", spy)  # every rank thread's calls
    run_spmd(_one_step, 4, network=sunway_network(4), seed=0,
             args=(cfg, sunway_machine(num_nodes=4)), timeout=120)
    assert len({thread for thread, _, _ in seen}) == 4  # every rank ran a backward
    assert sum(nodes for _, nodes, _ in seen) > 40  # ...and the walk saw its graph
    assert [held for _, _, held in seen] == [0] * len(seen)


#: SHA-256 of each leaf gradient of ``test_an_intermediate_nothing_reads_
#: dies_during_the_forward``'s graph, as the Tensor-as-node engine computed them.
_PINNED_GRADS = {
    "fp16": ["29337683c8dea8b0a4dc2af9a82579319e2aa41acf4690d24ce5b1f26645fd68",
             "86632503d0e3a8636ecf183c963c70547fadd94052ccc8563af9f5fb0c307280",
             "bcae58a174a4a43309b811e321da314c5cff1c7912d34927ff62d45ec143d0ac"],
    "fp32": ["e39badc908337f82111f890ce870d721475e2d0b20ad8df514930ef42876620c",
             "67f920e624c9acb41a51e0b17c86434bfa4650aeba5f98055f7038f64570300f",
             "f389867bf1fa8b833147db7108f5f107d0914088180655ac6f93daa8bee5a3e0"],
}


@pytest.mark.parametrize("dtype", sorted(_PINNED_GRADS))
def test_an_intermediate_nothing_reads_dies_during_the_forward(dtype):
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((6, 5)), requires_grad=True, dtype=dtype)
    b = Tensor(rng.standard_normal((5, 4)), requires_grad=True, dtype=dtype)
    c = Tensor(rng.standard_normal((4,)), requires_grad=True, dtype=dtype)
    product = a @ b
    gone = weakref.ref(product)
    h = gelu(product) + c  # gelu keeps the product's values, not the product
    del product
    assert gone() is None
    loss = (h * h).sum() + softmax(h * c).mean()
    loss.backward()
    if _platform() != PLATFORM:
        pytest.skip("BLAS/libm round differently here than where the literals were generated")
    got = [hashlib.sha256(leaf.grad.tobytes()).hexdigest() for leaf in (a, b, c)]
    assert got == _PINNED_GRADS[dtype]


# --------------------------------------------------------------------- #
# Nothing a trainer holds keeps a graph across ``train_step``
# --------------------------------------------------------------------- #

_OPAQUE = (type, types.ModuleType, types.BuiltinFunctionType, types.CodeType)


def _reachable(root) -> list:
    """Every Tensor and graph node reachable from ``root`` through attributes,
    containers and closures."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, (Tensor, _Node)):
            found.append(obj)
        # A function's referents include its module's globals: follow only its cells.
        refs = (obj.__closure__ or ()) if isinstance(obj, types.FunctionType) \
            else gc.get_referents(obj)
        for ref in refs:
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen.add(id(ref))
                stack.append(ref)
    return found


def _live_nodes(root) -> int:
    """Op nodes reachable from ``root`` that still hold their parents."""
    return sum(isinstance(n, _Node) and bool(n.parents) for n in _reachable(root))


def _params(root) -> list[Tensor]:
    return [t for t in _reachable(root) if isinstance(t, Tensor) and t.requires_grad]


def _train_and_look(comm, cfg, machine):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    held = []
    for step in range(2):
        outcome = trainer.train_step(step)
        comm.barrier()  # nobody is mid-step while anybody looks
        held.append(_live_nodes(trainer) + _live_nodes(outcome))
        comm.barrier()
    return held, len(_params(trainer))


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_strategy_keeps_a_graph_across_train_step(name):
    cfg = TrainingRunConfig(world_size=4, num_steps=2, **CASES[name])
    assert cfg.resolve_strategy().name == name
    cfg.resolve_strategy().validate(cfg)
    ranks = run_spmd(_train_and_look, 4, network=sunway_network(4), seed=0,
                     args=(cfg, sunway_machine(num_nodes=4)), timeout=120).returns
    for held, params in ranks:
        assert held == [0, 0]
        assert params > 4  # the walk did reach the model


def test_the_walk_does_see_a_graph_that_is_held():
    from repro.models import MoELanguageModel

    model = MoELanguageModel(tiny_config(), seed=0)
    tokens = np.zeros((2, 8), dtype=np.int64)
    loss = model.loss(tokens, tokens)
    # Every MoE layer's ``last_aux_loss`` reaches the whole forward graph...
    assert _live_nodes(model) > 50
    loss.backward()
    # ...until the step's backward has consumed it: then it is a bare scalar.
    assert _live_nodes(model) == 0
    assert all(m.last_aux_loss.shape == () for m in model.moe_layers())


# --------------------------------------------------------------------- #
# Traced memory of a step: level across steps, one graph at the peak
# --------------------------------------------------------------------- #

def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _captured_bytes(root: Tensor) -> int:
    """Bytes of the arrays the closures of ``root``'s graph hold, counted once
    per base array; a leaf's own values (a parameter's) are not the graph's."""
    nodes = _ancestors(root)
    leaves = {id(_base(n.data)) for n in nodes if not isinstance(n, _Node)}
    arrays = {id(b): b for n in nodes if isinstance(n, _Node)
              for b in map(_base, (o for o in _captured(n) if isinstance(o, np.ndarray)))}
    return sum(b.nbytes for key, b in arrays.items() if key not in leaves)


def _grad_bytes(params: list[Tensor]) -> int:
    grads = {id(b): b for b in (_base(p.grad) for p in params if p.grad is not None)}
    return sum(b.nbytes for b in grads.values())


def _traced_steps(comm, cfg, machine):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    for step in range(2):  # optimizer state and caches exist from here on
        trainer.train_step(step)
    params = _params(trainer)
    at_entry = []
    plain = Tensor.backward

    def spy(self, *args, **kwargs):
        at_entry.append((tracemalloc.get_traced_memory()[0], _captured_bytes(self)))
        return plain(self, *args, **kwargs)

    rows = []
    gc.collect()
    tracemalloc.start()
    Tensor.backward = spy
    try:
        for step in range(2, 7):
            tracemalloc.reset_peak()
            # The step drops the last step's gradients before its forward.
            before = tracemalloc.get_traced_memory()[0] - _grad_bytes(params)
            trainer.train_step(step)
            after, peak = tracemalloc.get_traced_memory()
            (entry, graph), = at_entry
            at_entry.clear()  # one backward per step on this trainer
            rows.append((before, entry, graph, peak, after - _grad_bytes(params)))
    finally:
        Tensor.backward = plain
        tracemalloc.stop()
    return rows, _grad_bytes(params)


def test_traced_memory_is_level_across_steps_and_peaks_at_one_graph():
    cfg = TrainingRunConfig(
        model=tiny_config(n_layers=4, num_experts=8, d_model=64, d_ff=128, top_k=2),
        world_size=1, batch_size=4, seq_len=32, mixed_precision=True, seed=0,
    )
    rows, grads = run_spmd(_traced_steps, 1, network=sunway_network(1), seed=0,
                           args=(cfg, sunway_machine(num_nodes=1))).returns[0]
    # The first traced steps re-allocate what the untraced ones already held
    # (tracemalloc sees only what is allocated while it runs): read the rest.
    for before, at_entry, graph, peak, after in rows[2:]:
        # What backward starts with is the graph's arrays (and the Python
        # objects of its nodes, a few per cent): no output nobody reads.
        assert abs((at_entry - before) - graph) < 0.05 * graph
        # After step k+1 what after step k: the step's graph is gone (what
        # is left over is the trainer's history, a few kB a step).
        assert abs(after - before) < 0.01 * graph
        # This step's graph and its gradients at the peak, and backward's
        # working set within them — not the previous step's graph beside.
        assert peak - before < graph + grads
