"""Activation recomputation (gradient checkpointing).

At brain scale, storing every intermediate activation is impossible:
``checkpoint(fn, *xs)`` runs ``fn`` forward *without* building its internal
graph (so the intermediates are garbage-collected), keeping only the
inputs; on backward it re-executes ``fn`` with grad enabled and
differentiates through the fresh subgraph. Memory for the segment drops to
its inputs + outputs at the cost of one extra forward (~1/3 extra step
compute) — the standard trade the memory model's ``recompute`` knob prices.
The replayed subgraph is consumed by the backward that differentiates it
(see :meth:`Tensor.backward`), so it is never alive beside the next
segment's; the outer backward drops this node's inputs the same way, and
backpropagating through the returned tensor twice needs ``retain_graph``.

Determinism caveat: ``fn`` must be a pure function of its tensor inputs
(no consumed RNG state), otherwise the replay would diverge.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, is_grad_enabled, no_grad

__all__ = ["checkpoint"]


def checkpoint(fn: Callable[..., Tensor], *inputs: Tensor) -> Tensor:
    """Run ``fn(*inputs)`` without storing its internal graph.

    Returns a tensor whose backward recomputes the segment. Only Tensor
    positional inputs participate in autograd; ``fn`` must return a single
    Tensor.
    """
    if not inputs:
        raise ShapeError("checkpoint() needs at least one tensor input")
    for x in inputs:
        if not isinstance(x, Tensor):
            raise ShapeError("checkpoint() inputs must be Tensors")

    with no_grad():
        out = fn(*inputs)
    if not isinstance(out, Tensor):
        raise ShapeError("checkpoint() function must return a Tensor")

    # The inputs' values, not the tensors: a non-leaf input's node belongs
    # to the graph below, which this node reaches through its parents.
    saved = [(x.data, x.dtype) for x in inputs]
    out_shape = out.shape

    def backward(g: np.ndarray) -> Sequence[np.ndarray | None]:
        # Replay with fresh leaves so gradients are isolated to this call.
        leaves = [
            Tensor(data, requires_grad=True, dtype=dtype) for data, dtype in saved
        ]
        replay = fn(*leaves)
        if replay.shape != out_shape:
            raise ShapeError(
                "checkpoint() replay produced a different shape "
                f"({replay.shape} vs {out_shape}); fn must be pure"
            )
        replay.backward(g)
        return [leaf.grad for leaf in leaves]

    # Track unconditionally (unlike ordinary ops): fn may close over
    # parameters that need gradients even when no *input* requires them.
    track = is_grad_enabled()
    return Tensor(
        out.data,
        requires_grad=False,
        dtype=out.dtype,
        _parents=tuple(inputs) if track else (),
        _backward=backward if track else None,
    )
