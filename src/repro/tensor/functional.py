"""Fused neural-network operations with hand-written backward passes.

These are the hot kernels of transformer training; fusing them keeps the
autograd graph small (important for pure-Python overhead) and matches how
real frameworks implement them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.tensor.dtype import DTypeSpec, promote, quantize
from repro.tensor.ops import _scatter_add
from repro.tensor.tensor import Tensor, _make, is_grad_enabled, unbroadcast

__all__ = [
    "gelu",
    "softmax",
    "cross_entropy",
    "layer_norm",
    "embedding",
    "gather_rows",
    "scatter_rows",
    "expert_ffn",
]


_GELU_C = float(np.sqrt(2.0 / np.pi))
#: Added to the variance under :func:`layer_norm`'s square root.
LAYER_NORM_EPS = 1e-5


def _gelu(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU's forward on an array: ``(0.5 * v * (1 + t), t)`` with
    ``t = tanh(C * (v + 0.044715 * (v * v * v)))``, written as in-place steps
    that round exactly as that expression does, with fewer temporaries."""
    t = v * v
    t *= v
    t *= 0.044715
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    y = 0.5 * v
    y *= 1.0 + t
    return y, t


def _gelu_grad(g: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``g`` through GELU at input ``v``, whose tanh term was ``t``."""
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * v**2)
    dt = (1.0 - t * t) * dinner
    return g * (0.5 * (1.0 + t) + 0.5 * v * dt)


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (as used by GPT-style models)."""
    v = x.data
    data, t = _gelu(v)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        return (_gelu_grad(g, v, t),)

    return _make(data, x.dtype, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Numerically-stable softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

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


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
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
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
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


def expert_ffn(
    x: Tensor,
    rows_per_expert: Sequence[int],
    experts: Sequence[tuple[Tensor, Tensor, Tensor, Tensor]],
) -> Tensor:
    """A group of expert MLPs over their expert-sorted rows, as one node.

    Expert ``e`` — its ``(w_in, b_in, w_out, b_out)`` in ``experts`` — runs
    ``gelu(x @ w_in + b_in) @ w_out + b_out`` on the next
    ``rows_per_expert[e]`` rows of the (M, D) ``x``; the rows come back in
    ``x`` order. This is the MoE expert stage, which FastMoE-style systems
    run as one grouped operator.

    The result and every gradient have the bits of the per-expert graph
    (``MLP`` on each row slice, joined in order): each matmul and bias add
    is that graph's NumPy call on the same segment, written into its rows
    of one shared buffer, and rounding and GELU, which act element by
    element, run once over the whole buffer. The input gradient is added
    into zeros, as ``getitem``'s backward does, so a -0.0 arrives as +0.0.
    An expert with no rows is not a parent and gets no gradient. With no
    graph to record (``no_grad``) the same steps run expert by expert, so
    the temporaries are one segment's. The experts share one dtype per
    parameter role, and ``x`` is C-contiguous (the expert-sorted rows
    ``gather_rows`` gives).
    """
    counts = [int(c) for c in rows_per_expert]
    if not experts or len(counts) != len(experts) or sum(counts) != x.shape[0]:
        raise ShapeError(
            f"rows_per_expert {counts} must give one count per expert "
            f"({len(experts)}) summing to the {x.shape[0]} rows of x"
        )
    live, lo = [], 0
    for params, rows in zip(experts, counts):
        if rows:
            live.append((params, slice(lo, lo + rows)))
        lo += rows
    w_in, b_in, w_out, b_out = experts[0]
    t_in = promote(x.dtype, w_in.dtype)
    t_hidden = promote(t_in, b_in.dtype)
    t_proj = promote(t_hidden, w_out.dtype)
    t_out = promote(t_proj, b_out.dtype)
    v = x.data
    m, d_ff, d_out = v.shape[0], w_in.shape[1], w_out.shape[1]

    def per_expert(op, a: np.ndarray, group: list, k: int, width: int,
                   dtype: DTypeSpec) -> np.ndarray:
        """``op(a[rows], param k)`` for each ``(params, rows)`` of ``group``, into one buffer."""
        out = np.empty((a.shape[0], width), dtype=dtype.storage)
        for params, seg in group:
            op(a[seg], params[k].data, out=out[seg])
        return out

    def run(a: np.ndarray, group: list) -> tuple[np.ndarray, ...]:
        """The FFN of ``group`` over the rows of ``a``: the hidden
        pre-activation, its tanh term, the activation and the output before
        its last rounding (``_make``'s)."""
        hidden = quantize(per_expert(np.matmul, a, group, 0, d_ff, t_in), t_in)
        hidden = quantize(per_expert(np.add, hidden, group, 1, d_ff, t_hidden), t_hidden)
        act, tanh_term = _gelu(hidden)
        act = quantize(act, t_hidden)
        out = quantize(per_expert(np.matmul, act, group, 2, d_out, t_proj), t_proj)
        return hidden, tanh_term, act, per_expert(np.add, out, group, 3, d_out, t_out)

    if not is_grad_enabled():
        # No backward needs the buffers, so run expert by expert: with
        # whole-buffer temporaries a serving fleet's peak RSS was ~4 % higher.
        out = np.empty((m, d_out), dtype=t_out.storage)
        for params, seg in live:
            out[seg] = run(v[seg], [(params, slice(None))])[3]
        return _make(out, t_out, (), None)
    hidden, tanh_term, act, out = run(v, live)

    def backward(g: np.ndarray) -> Sequence[np.ndarray]:
        g_act = np.empty((m, d_ff), dtype=np.result_type(g, w_out.data))
        for params, seg in live:
            np.matmul(g[seg], params[2].data.T, out=g_act[seg])
        g_hidden = _gelu_grad(g_act, hidden, tanh_term)
        gx = np.zeros(v.shape, dtype=v.dtype)
        grads = [gx]
        for params, seg in live:
            gh, go = g_hidden[seg], g[seg]
            gx[seg] += gh @ params[0].data.T
            grads += [v[seg].T @ gh, unbroadcast(gh, params[1].shape),
                      act[seg].T @ go, unbroadcast(go, params[3].shape)]
        return grads

    parents = (x,) + tuple(p for params, _ in live for p in params)
    return _make(out, t_out, parents, backward)
