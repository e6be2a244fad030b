"""Global gradient-norm clipping."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor
from repro.tensor.buckets import buckets

__all__ = ["global_grad_norm", "clip_grad_norm"]


def global_grad_norm(params: Iterable[Tensor], grad_scale: float = 1.0) -> float:
    """L2 norm over all gradients (after applying ``grad_scale``).

    Returns inf when any gradient is non-finite (so callers can treat a
    scaled-fp16 overflow uniformly). Works per bucket of
    :func:`~repro.tensor.buckets.buckets`, in float64, but still sums each
    gradient's squares on its own and adds the sums in parameter order, so
    the value is the per-parameter one bit for bit.
    """
    total = 0.0
    for run, _ in buckets(params):
        grads = [p.grad for p in run if p.grad is not None]
        if not grads:
            continue
        g = np.concatenate(grads, axis=None, dtype=np.float64) * grad_scale
        if not np.isfinite(g).all():
            return math.inf
        g *= g
        lo = 0
        for x in grads:
            total += float(g[lo: lo + x.size].sum())
            lo += x.size
    return math.sqrt(total)


def clip_grad_norm(params: Iterable[Tensor], max_norm: float, grad_scale: float = 1.0) -> float:
    """Scale gradients so their global norm is at most ``max_norm``.

    Returns the pre-clip norm. With ``grad_scale`` (loss-scaler inverse),
    the comparison happens in *unscaled* units while gradients remain
    scaled — the clip factor is applied on top.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be > 0, got {max_norm}")
    params = list(params)
    norm = global_grad_norm(params, grad_scale)
    if not math.isfinite(norm):
        return norm
    if norm > max_norm:
        factor = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad = (p.grad * factor).astype(p.grad.dtype)
    return norm
