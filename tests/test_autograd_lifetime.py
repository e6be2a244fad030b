"""A forward graph dies with the backward that used it.

``Tensor.backward`` consumes the graph it walks: a visited node gives up its
parents and its closure, so a rank holds one step's activations, not two.
Checked here: what is gone afterwards and what is intact, the error a second
backward gets, that ``retain_graph=True`` is today's two-pass accumulation
bit for bit, that no strategy's trainer keeps a graph across ``train_step``,
and the traced-memory profile of a step.
"""

import gc
import tracemalloc
import types

import numpy as np
import pytest

from repro.errors import AutogradError
from repro.hardware import sunway_machine
from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig
from repro.simmpi import run_spmd
from repro.tensor import Tensor, checkpoint, gelu, quantize
from tests.test_strategies import CASES


def _retaining_backward(root: Tensor, grad: np.ndarray) -> None:
    """``Tensor.backward`` as it was before it consumed the graph, verbatim."""
    topo, visited, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    grads = {id(root): grad}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node._accumulate(g)
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None:
                continue
            grads[id(parent)] = grads[id(parent)] + pg if id(parent) in grads else pg


def _ancestors(root: Tensor) -> list[Tensor]:
    seen, stack, out = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        out.append(node)
        for p in node._parents:
            if id(p) not in seen:
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
    assert sum(bool(n._parents) for n in nodes) > 10
    loss.backward()
    for node in nodes:
        assert node._parents == ()
        assert (node._backward is None) == any(node is leaf for leaf in leaves)
    assert all(leaf.requires_grad and leaf.grad is not None for leaf in leaves)

    twins, main2, aux2 = _two_heads(dtype)
    _retaining_backward(main2 + aux2, np.ones_like(loss.data))
    for leaf, twin in zip(leaves, twins):
        assert leaf.grad.tobytes() == twin.grad.tobytes()
    # A consumed node is a plain value from then on: new ops do not track it.
    assert (loss * 2.0)._parents == ()
    assert float(loss.item()) == float((main2 + aux2).item())


def test_a_node_no_gradient_reached_is_consumed_too():
    a = Tensor(np.ones(3), requires_grad=True)
    left, right = a * 2.0, a * 3.0
    fork = Tensor(left.data, _parents=(left, right), _backward=lambda g: (g, None))
    fork.backward()
    assert right._parents == () and left._parents == ()
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
    assert any(n._parents for n in _ancestors(main))
    aux.backward(seed)

    twins, main2, aux2 = _two_heads(dtype)
    _retaining_backward(main2, np.ones_like(main2.data))
    _retaining_backward(aux2, seed)
    for leaf, twin in zip(leaves, twins):
        assert leaf.grad.tobytes() == twin.grad.tobytes()
    # The second, consuming pass took what it reached; what only ``main``
    # reached is still there for whoever asked to retain it.
    assert all(n._parents == () for n in _ancestors(aux))
    assert main._parents != ()


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
    assert out._parents == ()


# --------------------------------------------------------------------- #
# Nothing a trainer holds keeps a graph across ``train_step``
# --------------------------------------------------------------------- #

_OPAQUE = (type, types.ModuleType, types.BuiltinFunctionType, types.CodeType)


def _reachable_tensors(root) -> list[Tensor]:
    """Every Tensor reachable from ``root`` through attributes, containers and closures."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, Tensor):
            found.append(obj)
        # A function's referents include its module's globals: follow only its cells.
        refs = (obj.__closure__ or ()) if isinstance(obj, types.FunctionType) \
            else gc.get_referents(obj)
        for ref in refs:
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen.add(id(ref))
                stack.append(ref)
    return found


def _train_and_look(comm, cfg, machine):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    held = []
    for step in range(2):
        outcome = trainer.train_step(step)
        comm.barrier()  # nobody is mid-step while anybody looks
        tensors = _reachable_tensors(trainer) + _reachable_tensors(outcome)
        held.append(sum(bool(t._parents) for t in tensors))
        comm.barrier()
    params = sum(t.requires_grad for t in _reachable_tensors(trainer))
    return held, params


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
    assert sum(bool(t._parents) for t in _reachable_tensors(model)) > 50
    loss.backward()
    # ...until the step's backward has consumed it: then it is a bare scalar.
    assert all(t._parents == () for t in _reachable_tensors(model))
    assert all(m.last_aux_loss.shape == () for m in model.moe_layers())


# --------------------------------------------------------------------- #
# Traced memory of a step: level across steps, one graph at the peak
# --------------------------------------------------------------------- #

def _traced_steps(comm, cfg, machine):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    for step in range(2):  # optimizer state and caches exist from here on
        trainer.train_step(step)
    at_entry = []
    plain = Tensor.backward

    def spy(self, *args, **kwargs):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return plain(self, *args, **kwargs)

    rows = []
    gc.collect()
    tracemalloc.start()
    Tensor.backward = spy
    try:
        for step in range(2, 7):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            trainer.train_step(step)
            after, peak = tracemalloc.get_traced_memory()
            rows.append((before, at_entry.pop(), peak, after))
            assert not at_entry  # one backward per step on this trainer
    finally:
        Tensor.backward = plain
        tracemalloc.stop()
    return rows


def test_traced_memory_is_level_across_steps_and_peaks_at_one_graph():
    cfg = TrainingRunConfig(
        model=tiny_config(n_layers=4, num_experts=8, d_model=64, d_ff=128, top_k=2),
        world_size=1, batch_size=4, seq_len=32, mixed_precision=True, seed=0,
    )
    rows = run_spmd(_traced_steps, 1, network=sunway_network(1), seed=0,
                    args=(cfg, sunway_machine(num_nodes=1))).returns[0]
    # The first traced steps re-allocate what the untraced ones already held
    # (tracemalloc sees only what is allocated while it runs): read the rest.
    for before, at_entry, peak, after in rows[2:]:
        graph = at_entry - before  # the activations backward starts with
        assert graph > 4e6
        # After step k+1 what after step k: the step's graph is gone (what
        # is left over is the trainer's history, a few kB a step).
        assert abs(after - before) < 0.01 * graph
        # One graph at the peak, plus backward's working set — not the
        # previous step's graph beside this one's.
        assert peak - before < 1.25 * graph
