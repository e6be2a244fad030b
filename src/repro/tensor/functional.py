"""Fused neural-network operations with hand-written backward passes.

These are the hot kernels of transformer training; fusing them keeps the
autograd graph small (important for pure-Python overhead) and matches how
real frameworks implement them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tensor.ops import _scatter_add
from repro.tensor.tensor import Tensor, _make

__all__ = [
    "relu",
    "gelu",
    "silu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "layer_norm",
    "embedding",
    "gather_rows",
    "scatter_rows",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    data = np.maximum(x.data, 0.0)
    mask = x.data > 0.0

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (g * mask,)

    return _make(data, x.dtype, (x,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (as used by GPT-style models)."""
    v = x.data
    inner = _GELU_C * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    data = 0.5 * v * (1.0 + t)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * v**2)
        dt = (1.0 - t * t) * dinner
        return (g * (0.5 * (1.0 + t) + 0.5 * v * dt),)

    return _make(data, x.dtype, (x,), backward)


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation: x * sigmoid(x)."""
    v = x.data
    e = np.exp(-np.abs(v))  # in (0, 1]: neither branch can overflow
    s = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    data = v * s

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (g * (s + v * s * (1.0 - s)),)

    return _make(data, x.dtype, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make(data, x.dtype, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - logsum
    soft = np.exp(data)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _make(data, x.dtype, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross-entropy.

    Parameters
    ----------
    logits:
        Tensor of shape (N, V) — one row of vocabulary scores per token.
    targets:
        Integer array of shape (N,).

    The loss and its gradient are computed in fp32 regardless of the logit
    dtype (the standard "loss in high precision" practice), while the
    gradient handed back *to the logits* is quantized by the autograd
    engine to the logits' dtype.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, V) logits, got {logits.shape}")
    targets = np.asarray(targets)
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits rows {logits.shape[0]}"
        )
    x = logits.data.astype(np.float64)
    shifted = x - x.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsum  # (N, V)

    count = max(len(targets), 1)
    picked = logp[np.arange(len(targets)), targets]
    loss = -picked.sum() / count

    soft = np.exp(logp)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        grad = soft.copy()
        grad[np.arange(len(targets)), targets] -= 1.0
        grad *= 1.0 / count
        return (np.asarray(g) * grad.astype(logits.data.dtype),)

    return _make(np.asarray(loss), logits.dtype if logits.dtype.name == "fp64" else _fp32(), (logits,), backward)


def _fp32():
    from repro.tensor.dtype import as_dtype
    return as_dtype("fp32")


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension.

    Statistics are computed in fp32 (standard practice in fp16 training),
    then scale/shift applied with ``weight`` and ``bias`` of shape (D,).
    """
    d = x.shape[-1]
    if weight.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm weight/bias must have shape ({d},), got {weight.shape}/{bias.shape}"
        )
    # Stats in fp32 for low-precision inputs (standard practice); fp64
    # inputs keep full precision so gradcheck stays meaningful.
    v = x.data if x.data.dtype == np.float64 else x.data.astype(np.float32)
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (v - mu) * inv
    data = xhat * weight.data + bias.data

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        gw = (g * xhat).sum(axis=tuple(range(g.ndim - 1)))
        gb = g.sum(axis=tuple(range(g.ndim - 1)))
        gx_hat = g * weight.data
        # d/dx of (x - mu) * inv with mu, var functions of x:
        m1 = gx_hat.mean(axis=-1, keepdims=True)
        m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gx_hat - m1 - xhat * m2)
        return gx.astype(x.data.dtype), gw, gb

    return _make(data, x.dtype, (x, weight, bias), backward)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` (V, D) by integer ``ids`` (any shape).

    Backward scatter-adds into the embedding table — the memory-bound
    operation that dominates the input layer of large LMs.
    """
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {weight.shape[0]}): "
            f"[{ids.min()}, {ids.max()}]"
        )
    data = weight.data[ids]

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        gw = np.zeros_like(weight.data)
        _scatter_add(gw, ids, g)
        return (gw,)

    return _make(data, weight.dtype, (weight,), backward, exact=True)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows ``x[idx]`` of a (N, D) tensor; backward scatter-adds.

    This is the token-dispatch primitive of MoE routing: the same row may
    be gathered multiple times (top-k > 1) and gradients accumulate.
    """
    idx = np.asarray(idx)
    data = x.data[idx]

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        gx = np.zeros_like(x.data)
        _scatter_add(gx, idx, g)
        return (gx,)

    return _make(data, x.dtype, (x,), backward, exact=True)


def scatter_rows(src: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    """Scatter-add rows of ``src`` (M, D) into a (num_rows, D) output.

    The token-combine primitive of MoE routing (inverse of
    :func:`gather_rows`); duplicate indices accumulate.
    """
    idx = np.asarray(idx)
    if idx.shape != (src.shape[0],):
        raise ShapeError(
            f"scatter_rows idx shape {idx.shape} must be ({src.shape[0]},)"
        )
    out = np.zeros((num_rows,) + src.shape[1:], dtype=src.data.dtype)
    _scatter_add(out, idx, src.data)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (g[idx],)

    return _make(out, src.dtype, (src,), backward)
