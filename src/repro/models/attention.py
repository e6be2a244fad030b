"""Multi-head causal self-attention."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.layers import Linear
from repro.models.module import Module
from repro.tensor import Tensor, is_grad_enabled, softmax

__all__ = ["CausalSelfAttention"]


class CausalSelfAttention(Module):
    """GPT-style masked multi-head self-attention.

    Input/output shape (B, T, D). Scores are masked with a lower-triangular
    causal mask; attention probabilities use the numerically-stable softmax.
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        if d_model % n_heads != 0:
            raise ConfigError(
                f"d_model={d_model} must be divisible by n_heads={n_heads}"
            )
        self.d_model = d_model
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        self.qkv = Linear(d_model, 3 * d_model, rng)
        self.proj = Linear(d_model, d_model, rng)
        self._scale = 1.0 / np.sqrt(self.head_dim)

    def forward(self, x: Tensor, kv=None, valid: np.ndarray | None = None) -> Tensor:
        """Attend over ``x`` (and, with ``kv``, over cached history).

        ``kv`` is a :class:`~repro.serve.kvcache.KVLayerView`: the new
        tokens' keys/values are appended to it and queries attend over the
        full cached prefix, so a decode step is O(new tokens) instead of
        O(window). ``valid[b]`` marks how many of the ``t`` input positions
        of row b are real (the rest are batch padding and neither attend
        correctly nor enter the cache). The uncached path is untouched.
        """
        b, t, d = x.shape
        if d != self.d_model:
            raise ConfigError(f"expected last dim {self.d_model}, got {d}")
        h, hd = self.n_heads, self.head_dim

        qkv = self.qkv(x)  # (B, T, 3D)
        qkv = qkv.reshape(b, t, 3, h, hd).transpose(2, 0, 3, 1, 4)  # (3, B, H, T, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        if kv is None:
            scores = (q @ k.transpose(0, 1, 3, 2)) * self._scale  # (B, H, T, T)
            causal = np.triu(np.full((t, t), -1e9, dtype=np.float32), k=1)
            scores = scores + causal  # broadcast over (B, H)
            attn = softmax(scores)
            out = attn @ v  # (B, H, T, hd)
        else:
            if is_grad_enabled():
                raise ConfigError(
                    "kv_cache decoding is inference-only; wrap the forward "
                    "in no_grad()"
                )
            if valid is None:
                valid = np.full(b, t, dtype=np.int64)
            k_all, v_all, ctx = kv.append(k.data, v.data, valid)
            total = ctx + valid  # (B,) cached + new length per row
            tmax = k_all.shape[2]
            scores = (q @ Tensor(k_all).transpose(0, 1, 3, 2)) * self._scale
            # Causal over absolute positions: new token i of row b sits at
            # position ctx[b]+i and may see keys j <= that position (and
            # only real keys, j < total[b]). With ctx=0, valid=t this is
            # exactly the triangular mask of the uncached path.
            j = np.arange(tmax)
            pos = ctx[:, None] + np.arange(t)[None, :]  # (B, t)
            allowed = (j[None, None, :] <= pos[:, :, None]) & (
                j[None, None, :] < total[:, None, None]
            )
            mask = np.where(allowed, np.float32(0.0), np.float32(-1e9))
            scores = scores + mask[:, None, :, :]  # broadcast over heads
            attn = softmax(scores)
            out = attn @ Tensor(v_all)  # (B, H, T, hd)

        out = out.transpose(0, 2, 1, 3).reshape(b, t, d)
        return self.proj(out)
