"""Primitive differentiable operations.

Each op computes its forward result in NumPy, quantizes onto the output
dtype grid, and registers a backward closure returning one gradient per
parent (already unbroadcast to the parent's shape). A closure captures
the arrays it computes with, plus shapes and dtypes, never a non-leaf
tensor: the graph holds what backward reads (:mod:`repro.tensor.tensor`).
The exception to the rounding: an op
that only *moves* values (here ``reshape``, ``transpose``, ``getitem``)
passes ``exact`` to ``_make`` — every element already sits on the grid in a
parent — and is not rounded again. Anything that computes values
(arithmetic, matmul, reductions) never may.

Scatter-adds go through :func:`_scatter_add`, whose contract is NumPy's
``add.at``: one destination's contributions are added left to right in index
order, so every value — signed zeros too — has the same bits (a NaN's sign,
which the CPU picks from its two operands, is the one bit not promised).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, _coerce, _make, result_dtype, unbroadcast

__all__ = [
    "add",
    "mul",
    "div",
    "matmul",
    "reshape",
    "transpose",
    "getitem",
    "sum_",
    "mean",
]


# ---------------------------------------------------------------------- #
# Elementwise binary
# ---------------------------------------------------------------------- #

def add(a: Any, b: Any) -> Tensor:
    """Elementwise ``a + b`` with broadcasting."""
    if not isinstance(a, Tensor):
        a = _coerce(a, b)
    b = _coerce(b, a)
    out_dtype = result_dtype(a, b)
    data = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return unbroadcast(g, a_shape), unbroadcast(g, b_shape)

    return _make(data, out_dtype, (a, b), backward)


def mul(a: Any, b: Any) -> Tensor:
    """Elementwise ``a * b`` with broadcasting."""
    if not isinstance(a, Tensor):
        a = _coerce(a, b)
    b = _coerce(b, a)
    out_dtype = result_dtype(a, b)
    av, bv = a.data, b.data
    data = av * bv

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return unbroadcast(g * bv, av.shape), unbroadcast(g * av, bv.shape)

    return _make(data, out_dtype, (a, b), backward)


def div(a: Any, b: Any) -> Tensor:
    """Elementwise ``a / b`` with broadcasting."""
    if not isinstance(a, Tensor):
        a = _coerce(a, b)
    b = _coerce(b, a)
    out_dtype = result_dtype(a, b)
    av, bv = a.data, b.data
    data = av / bv

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        ga = unbroadcast(g / bv, av.shape)
        gb = unbroadcast(-g * av / (bv * bv), bv.shape)
        return ga, gb

    return _make(data, out_dtype, (a, b), backward)


# ---------------------------------------------------------------------- #
# Linear algebra
# ---------------------------------------------------------------------- #

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiplication with NumPy's ``@`` broadcasting."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ShapeError("matmul requires Tensor operands")
    out_dtype = result_dtype(a, b)
    av, bv = a.data, b.data
    data = av @ bv

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        if av.ndim == 1 and bv.ndim == 1:
            # Inner product: g is scalar.
            return g * bv, g * av
        if av.ndim == 1:
            # (K,) @ (..., K, N) -> (..., N)
            ga = (g[..., None, :] @ np.swapaxes(bv, -1, -2)).reshape(bv.shape[:-2] + av.shape)
            ga = unbroadcast(ga, av.shape)
            gb = unbroadcast(av[..., :, None] @ g[..., None, :], bv.shape)
            return ga, gb
        if bv.ndim == 1:
            # (..., M, K) @ (K,) -> (..., M)
            ga = unbroadcast(g[..., :, None] @ bv[None, :], av.shape)
            gb = unbroadcast(np.swapaxes(av, -1, -2) @ g[..., :, None], (bv.shape[0], 1)).reshape(bv.shape)
            return ga, gb
        ga = unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)
        gb = unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape)
        return ga, gb

    return _make(data, out_dtype, (a, b), backward)


# ---------------------------------------------------------------------- #
# Shape manipulation
# ---------------------------------------------------------------------- #

def _scatter_add(out: np.ndarray, index: Any, rows: np.ndarray) -> None:
    """``np.add.at(out, index, rows)`` with the same bits, for autograd's shapes.

    A basic index selects a view, which cannot name an element twice: ``+=``.
    An integer array (axis 0, may repeat) is summed in multiplicity rounds:
    round j adds every destination's j-th contribution, in index order, with
    one fancy-indexed ``+=`` whose indices are unique within the round.
    """
    if (isinstance(index, np.ndarray) and index.dtype.kind in "iu" and index.size
            and rows.shape == index.shape + out.shape[1:]):
        idx, n = index.reshape(-1), index.size
        rows = rows.reshape((n,) + out.shape[1:])
        order = idx.argsort(kind="stable")
        if idx[order[0]] < 0:  # -1 and len-1 are one destination: sort them together
            idx = np.where(idx < 0, idx + out.shape[0], idx)
            order = idx.argsort(kind="stable")
        dest = idx[order]
        cuts = np.flatnonzero(dest[1:] != dest[:-1]) + 1  # where the next destination starts
        if cuts.size == n - 1:  # no repeats: one round, nothing to permute
            out[idx] += rows
            return
        pos, ends = np.concatenate(([0], cuts)), np.concatenate((cuts, [n]))
        while pos.size:
            out[dest[pos]] += rows[order[pos]]
            pos = pos + 1
            live = pos < ends
            pos, ends = pos[live], ends[live]
    elif all(i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))
             for i in (index if isinstance(index, tuple) else (index,))):
        out[index] += rows
    else:
        np.add.at(out, index, rows)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reshape preserving order; grad reshapes back."""
    data = a.data.reshape(shape)
    src_shape = a.shape

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (g.reshape(src_shape),)

    return _make(data, a.dtype, (a,), backward, exact=True)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Axis permutation; grad applies the inverse permutation."""
    data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (np.transpose(g, inv),)

    return _make(data, a.dtype, (a,), backward, exact=True)


def getitem(a: Tensor, index: Any) -> Tensor:
    """Basic/advanced indexing; grad scatter-adds into the source shape."""
    data = np.asarray(a.data[index])  # a full integer index gives a NumPy scalar
    src_shape = a.shape
    src_np = a.data.dtype

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        out = np.zeros(src_shape, dtype=src_np)
        _scatter_add(out, index, g)
        return (out,)

    return _make(data, a.dtype, (a,), backward, exact=True)


# ---------------------------------------------------------------------- #
# Reductions
# ---------------------------------------------------------------------- #

def sum_(a: Tensor, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes by default)."""
    data = a.data.sum(axis=axis, keepdims=keepdims)
    src_shape = a.shape

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        gg = g
        if not keepdims and axis is not None:
            gg = np.expand_dims(g, axis)
        elif not keepdims and axis is None:
            gg = np.asarray(g).reshape((1,) * len(src_shape))
        return (np.broadcast_to(gg, src_shape).copy(),)

    return _make(data, a.dtype, (a,), backward)


def mean(a: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
    """Arithmetic mean over ``axis``."""
    data = a.data.mean(axis=axis)
    src_shape = a.shape
    count = a.data.size if axis is None else np.prod(
        [src_shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        if axis is None:
            gg = np.asarray(g).reshape((1,) * len(src_shape))
        else:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, src_shape) / count,)

    return _make(data, a.dtype, (a,), backward)

