"""A minimal reverse-mode autograd engine over NumPy.

Design follows the classic tape-free graph approach, with the graph kept
apart from the values as PyTorch's ``grad_fn`` keeps it: an op's output
tensor holds its value and a private :class:`_Node`, and the node holds the
op's backward closure and its parents' *nodes*. A leaf (a parameter or a
``requires_grad`` input) is its own node. All math is vectorized NumPy.
Invariant: ``Tensor.data`` always sits on the grid of the
tensor's emulated dtype (see :mod:`repro.tensor.dtype`) — the constructor
rounds what it is given, every op rounds what it computes, loaders round
what they load — so fp16/bf16 runs faithfully reproduce rounding and
overflow behaviour. Hence an op that only moves values may hand ``_make``
its output as ``exact`` and skip the rounding (:mod:`repro.tensor.ops`).

Gradients are accumulated in the tensor's own dtype: an fp16 tensor gets
fp16-quantized gradients, which is what makes dynamic loss scaling (in
:mod:`repro.amp`) observable and necessary, exactly as on real hardware.

Lifetime: the graph holds what backward reads. A closure captures the
arrays it computes with (plus shapes and dtypes), never a non-leaf tensor,
and a node does not point back at its output, so an intermediate no closure
reads is freed during the forward, when its last Python reference goes.
``backward`` consumes the graph it walks: a node hands its parents and its
closure (hence every saved activation) back as soon as its own gradient has
been propagated, so a forward graph dies with the backward that used it; a
tensor that outlives the step (a loss kept for logging, an MoE layer's
``last_aux_loss``) is then a plain value, not a pin on the step's
activations. A second backward over a shared subgraph is the one case that
must say so up front: the first one is called with ``retain_graph`` set.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import AutogradError, ShapeError
from repro.tensor.dtype import DTypeSpec, as_dtype, promote, quantize

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "unbroadcast"]


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def grad_mode(enabled: bool):
    """Record the graph or not inside the ``with`` block (thread-local)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = enabled
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def no_grad():
    """Disable graph construction inside the ``with`` block (thread-local)."""
    return grad_mode(False)


def is_grad_enabled() -> bool:
    """Whether operations currently record the autograd graph."""
    return _grad_mode.enabled


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting.

    Sums over axes that were added or expanded by broadcasting; the inverse
    of the implicit expand in forward ops.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that broadcasting prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"cannot unbroadcast grad of shape {grad.shape} to {shape}")
    return grad


class _Node:
    """An op's place in the graph: its backward closure and its parents'.

    ``parents`` holds, per input of the op, that input's node — a leaf
    :class:`Tensor`, another ``_Node``, or ``None`` for a plain value — in
    the order ``backward`` returns their gradients. The node never refers to
    the tensor it belongs to, so that tensor lives only as long as its
    holders.
    """

    __slots__ = ("parents", "backward")

    def __init__(
        self,
        parents: tuple["Tensor | _Node | None", ...],
        backward: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ):
        self.parents = parents
        self.backward = backward


class Tensor:
    """An n-dimensional array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like initial value; stored quantized to ``dtype``.
    requires_grad:
        Whether to accumulate gradients into ``.grad`` on backward.
    dtype:
        Emulated dtype name ("fp64", "fp32", "fp16", "bf16").

    ``name`` is the label a :class:`~repro.models.Module` gives each of its
    parameters, shown by ``repr``.

    A ``requires_grad`` tensor is a leaf: it is its own graph node. Any
    other tensor has a private ``_node`` (a :class:`_Node`), or ``None``
    when no graph was recorded for it; ``_parents`` and ``_backward`` build
    that node.
    """

    __slots__ = ("data", "dtype", "requires_grad", "grad", "_node", "name", "__weakref__")

    def __init__(
        self,
        data: Any,
        requires_grad: bool = False,
        dtype: str | DTypeSpec = "fp32",
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
    ):
        spec = as_dtype(dtype)
        self.data: np.ndarray = quantize(np.asarray(data), spec)
        self.dtype: DTypeSpec = spec
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node = None if _backward is None else _Node(_nodes_of(_parents), _backward)
        self.name: str | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Python scalar for 1-element tensors."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self) -> float:
        raise ShapeError(f"item() requires a 1-element tensor, got shape {self.shape}")

    # ------------------------------------------------------------------ #
    # Autograd
    # ------------------------------------------------------------------ #

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``.grad``, quantized to this tensor's dtype."""
        q = quantize(g, self.dtype)
        if self.grad is None:
            # Own a C-ordered array: the one rounding has just allocated, or a
            # copy where it returned its argument, a view or another order.
            fresh = q is not g and q.flags.owndata and q.flags.c_contiguous
            self.grad = q if fresh else q.copy()
        else:
            self.grad = quantize(self.grad + q, self.dtype)

    def backward(self, grad: np.ndarray | None = None, retain_graph: bool = False) -> None:
        """Run reverse-mode autodiff from this tensor, consuming the graph.

        ``grad`` defaults to ones (scalar outputs in practice). Gradients
        accumulate into ``.grad`` of every reachable tensor that has
        ``requires_grad=True``; call :meth:`zero_grad` between steps.

        Every op node reachable from here gives up its parents and its
        backward closure once it has been visited, so the activations
        are freed while the pass runs; backpropagating through such a node
        again raises :class:`~repro.errors.AutogradError`. Set
        ``retain_graph`` when another backward over (part of) the same
        graph follows — the order of traversal and accumulation is the same
        either way, so the gradients are bit-identical.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.shape:
                raise ShapeError(
                    f"backward grad shape {grad.shape} != tensor shape {self.shape}"
                )

        root = self if self.requires_grad else self._node
        if root is None:
            return
        # Topological order of the nodes via iterative DFS (recursion-free:
        # deep MoE stacks easily exceed Python's recursion limit).
        topo: list[Tensor | _Node] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if type(node) is _Node:
                for p in node.parents:
                    if p is not None and id(p) not in visited:
                        stack.append((p, False))

        # Walk it in reverse by popping, so ``topo`` stops holding a node
        # (and the node its activations) the moment the node is done.
        grads: dict[int, np.ndarray] = {id(root): grad}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if type(node) is not _Node:  # a leaf
                if g is not None:
                    node._accumulate(g)
                continue
            if g is not None:
                for parent, pg in zip(node.parents, node.backward(g)):
                    if pg is None or parent is None:
                        continue
                    pid = id(parent)
                    if pid in grads:
                        grads[pid] = grads[pid] + pg
                    else:
                        grads[pid] = pg
            if not retain_graph:
                node.parents, node.backward = (), _consumed

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Operator sugar (implementations live in repro.tensor.ops, bound at
    # the bottom of this module)
    # ------------------------------------------------------------------ #

    def __add__(self, other):  # noqa: D105
        return ops.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):  # noqa: D105
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):  # noqa: D105
        return ops.div(self, other)

    def __matmul__(self, other):  # noqa: D105
        return ops.matmul(self, other)

    def __getitem__(self, index):  # noqa: D105
        return ops.getitem(self, index)

    def reshape(self, *shape):  # noqa: D102
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes):  # noqa: D102
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes or None)

    def sum(self, axis=None, keepdims=False):  # noqa: D102
        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):  # noqa: D102
        return ops.mean(self, axis=axis)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"Tensor(shape={self.shape}, dtype={self.dtype.name}, "
            f"requires_grad={self.requires_grad}{label})"
        )


def _consumed(g: np.ndarray) -> Sequence[np.ndarray | None]:
    """What a node's ``backward`` becomes once a backward pass has used it."""
    raise AutogradError(
        "backward reached a node whose graph an earlier backward() already consumed; "
        "pass retain_graph=True to that earlier call to backpropagate through it again"
    )


def _make(
    data: np.ndarray,
    dtype: DTypeSpec,
    parents: tuple[Tensor, ...],
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None,
    exact: bool = False,
) -> Tensor:
    """Internal op-output constructor; drops the graph under no_grad.

    ``exact`` is the op's claim that every element of ``data`` is an element
    of a parent of the same or a narrower emulated dtype, so already on the
    grid and not rounded again; only ops that merely move values may pass it.
    """
    if not (exact and data.dtype == dtype.storage):
        data = quantize(data, dtype)
    elif dtype.name == "bf16":
        # Rounding also fixed the memory order (bf16: C; fp16: a dense copy
        # in the source's order) and NumPy's reductions add in memory order:
        # keep handing the ops downstream the layout they always saw.
        data = np.asarray(data, order="C")
    elif dtype.name == "fp16" and not data.flags.forc:
        data = data.copy(order="K")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.dtype = dtype
    out.requires_grad = False
    out.grad = None
    nodes = _nodes_of(parents) if _grad_mode.enabled else ()
    track = any(n is not None and (type(n) is not _Node or n.parents) for n in nodes)
    out._node = _Node(nodes, backward) if track else None
    out.name = None
    return out


def _nodes_of(tensors: Sequence[Tensor]) -> tuple[Tensor | _Node | None, ...]:
    """Each tensor's graph node: itself for a leaf, else its op's (``None`` if untracked)."""
    return tuple(t if t.requires_grad else t._node for t in tensors)


def _coerce(x: Any, like: Tensor) -> Tensor:
    """Promote scalars/arrays to tensors matching ``like``'s dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x), dtype=like.dtype)


def result_dtype(a: Tensor, b: Tensor) -> DTypeSpec:
    """Output dtype for a binary op."""
    return promote(a.dtype, b.dtype)


# Last, because ``ops`` imports this module: every name it needs exists now.
from repro.tensor import ops  # noqa: E402
