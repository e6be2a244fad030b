"""Per-layer KV cache for incremental (O(1)-per-token) decoding.

Autoregressive decoding without a cache recomputes every key/value
projection of the whole window for each new token — O(T) work per token,
O(T^2) per sequence. The :class:`KVCache` stores the keys/values each layer
already produced so a decode step only projects the *new* tokens and
attends over cached history.

Storage is paged: each layer holds one (B, H, alloc, hd) buffer per
tensor, grown in 8-token blocks up to ``capacity`` tokens, so
short requests never pay for the full window. Rows are independent —
per-row committed lengths let ragged batches (continuous batching) share
one cache, and :meth:`reset` recycles a row's slot for the next request
without reallocating.

Writes are two-phase: :meth:`KVLayerView.append` stages the new tokens for
one layer and returns the padded cached views for attention; the *model*
calls :meth:`commit` once after all layers ran, advancing the shared
per-row lengths exactly once per forward.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CacheOverflow, ConfigError
from repro.utils.mathx import ceil_div

__all__ = ["KVCache", "KVLayerView"]


class KVCache:
    """Paged per-layer key/value storage shared by a batch of rows.

    Parameters
    ----------
    num_layers / batch_size / n_heads / head_dim:
        Shape of the transformer producing the keys/values.
    capacity:
        Maximum cached tokens per row; writes past it raise
        :class:`~repro.errors.CacheOverflow`.
    token_budget:
        Optional cap on *total* committed tokens across all rows — the
        shared-memory pressure a real paged KV pool has. ``commit`` past
        the budget raises :class:`~repro.errors.CacheOverflow`; engines
        are expected to check :meth:`fits` first and evict a low-priority
        row instead of ever hitting the error (graceful degradation).
    """

    #: Allocation granularity in tokens (paged growth).
    block_size = 8
    #: Cached keys and values are float32 whatever the model's dtype.
    dtype = np.float32

    def __init__(
        self,
        num_layers: int,
        batch_size: int,
        n_heads: int,
        head_dim: int,
        capacity: int,
        token_budget: int | None = None,
    ):
        if min(num_layers, batch_size, n_heads, head_dim, capacity) < 1:
            raise ConfigError(
                "KVCache dims (layers, batch, heads, head_dim, capacity) "
                "must all be >= 1"
            )
        if token_budget is not None and token_budget < 1:
            raise ConfigError(f"token_budget must be >= 1, got {token_budget}")
        self.num_layers = num_layers
        self.batch_size = batch_size
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.capacity = capacity
        self.token_budget = token_budget
        self._alloc = 0
        shape = (batch_size, n_heads, 0, head_dim)
        self._k = [np.zeros(shape, dtype=self.dtype) for _ in range(num_layers)]
        self._v = [np.zeros(shape, dtype=self.dtype) for _ in range(num_layers)]
        #: Committed cached tokens per row (shared by all layers).
        self.lengths = np.zeros(batch_size, dtype=np.int64)

    @classmethod
    def for_model(
        cls,
        model,
        batch_size: int,
        capacity: int | None = None,
        token_budget: int | None = None,
    ) -> "KVCache":
        """Build a cache sized for ``model`` (a model or a ModelConfig)."""
        cfg = getattr(model, "config", model)
        return cls(
            num_layers=cfg.n_layers,
            batch_size=batch_size,
            n_heads=cfg.n_heads,
            head_dim=cfg.d_model // cfg.n_heads,
            capacity=cfg.max_seq_len if capacity is None else capacity,
            token_budget=token_budget,
        )

    # ------------------------------------------------------------------ #

    @property
    def max_length(self) -> int:
        """Longest committed row."""
        return int(self.lengths.max())

    @property
    def committed_tokens(self) -> int:
        """Total committed tokens across all rows (budget accounting)."""
        return int(self.lengths.sum())

    def fits(self, new_tokens: int) -> bool:
        """Would committing ``new_tokens`` more stay within the budget?"""
        if self.token_budget is None:
            return True
        return self.committed_tokens + int(new_tokens) <= self.token_budget

    def layer(self, index: int, rows: np.ndarray | None = None) -> "KVLayerView":
        """View of layer ``index`` restricted to ``rows`` (default: all)."""
        if not 0 <= index < self.num_layers:
            raise ConfigError(
                f"layer index {index} out of range [0, {self.num_layers})"
            )
        if rows is None:
            rows = np.arange(self.batch_size)
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.batch_size):
            raise ConfigError(
                f"cache rows out of range [0, {self.batch_size}): {rows}"
            )
        return KVLayerView(self, index, rows)

    def commit(self, rows: np.ndarray, valid: np.ndarray) -> None:
        """Advance committed lengths after a full forward wrote all layers."""
        rows = np.asarray(rows, dtype=np.int64)
        valid = np.asarray(valid, dtype=np.int64)
        new = self.lengths[rows] + valid
        if (new > self.capacity).any():
            raise CacheOverflow(
                f"commit to {int(new.max())} tokens exceeds capacity "
                f"{self.capacity}"
            )
        if not self.fits(int(valid.sum())):
            raise CacheOverflow(
                f"commit of {int(valid.sum())} tokens would push the cache "
                f"to {self.committed_tokens + int(valid.sum())} committed "
                f"tokens, over the {self.token_budget}-token budget; evict "
                "a row first"
            )
        self.lengths[rows] = new

    def reset(self, rows: np.ndarray | None = None) -> None:
        """Recycle rows for new requests (storage is reused in place)."""
        if rows is None:
            self.lengths[:] = 0
        else:
            self.lengths[np.asarray(rows, dtype=np.int64)] = 0

    def _ensure_alloc(self, tokens: int) -> None:
        if tokens <= self._alloc:
            return
        grow = ceil_div(tokens - self._alloc, self.block_size) * self.block_size
        new_alloc = min(self.capacity, self._alloc + grow)
        pad = (self.batch_size, self.n_heads, new_alloc - self._alloc, self.head_dim)
        for i in range(self.num_layers):
            self._k[i] = np.concatenate(
                [self._k[i], np.zeros(pad, dtype=self.dtype)], axis=2
            )
            self._v[i] = np.concatenate(
                [self._v[i], np.zeros(pad, dtype=self.dtype)], axis=2
            )
        self._alloc = new_alloc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KVCache(layers={self.num_layers}, batch={self.batch_size}, "
            f"len={self.max_length}/{self.capacity}, alloc={self._alloc})"
        )


class KVLayerView:
    """One layer's window into a :class:`KVCache` for a set of rows.

    The attention layer calls :meth:`append` with the freshly projected
    keys/values of the new tokens; the view writes them at each row's
    committed offset and hands back the padded cached tensors plus the
    per-row context lengths the causal mask needs.
    """

    def __init__(self, cache: KVCache, layer: int, rows: np.ndarray):
        self.cache = cache
        self.layer = layer
        self.rows = rows

    def append(
        self, k_new: np.ndarray, v_new: np.ndarray, valid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stage ``valid[b]`` new tokens per row; return cached K/V + ctx.

        ``k_new``/``v_new`` are (B, H, t, hd) for this view's rows; entries
        past ``valid[b]`` are padding and are not written. Returns
        ``(k_all, v_all, ctx)`` where ``k_all``/``v_all`` are
        (B, H, Tmax, hd) padded views over cached + new tokens and ``ctx``
        is the (B,) committed length per row *before* this append.
        """
        cache = self.cache
        b = len(self.rows)
        if k_new.shape[0] != b or v_new.shape[0] != b:
            raise ConfigError(
                f"append batch {k_new.shape[0]} != view rows {b}"
            )
        valid = np.asarray(valid, dtype=np.int64)
        if valid.shape != (b,) or (valid < 1).any() or (valid > k_new.shape[2]).any():
            raise ConfigError(
                f"valid must be (B,) in [1, t={k_new.shape[2]}], got {valid}"
            )
        ctx = cache.lengths[self.rows].copy()
        need = int((ctx + valid).max())
        if need > cache.capacity:
            raise CacheOverflow(
                f"append to {need} tokens exceeds cache capacity "
                f"{cache.capacity}; reset() the row or re-prefill a window"
            )
        cache._ensure_alloc(need)
        ks, vs = cache._k[self.layer], cache._v[self.layer]
        for i, r in enumerate(self.rows):
            lo, hi = int(ctx[i]), int(ctx[i] + valid[i])
            ks[r, :, lo:hi] = k_new[i, :, : valid[i]]
            vs[r, :, lo:hi] = v_new[i, :, : valid[i]]
        k_all = ks[self.rows][:, :, :need]
        v_all = vs[self.rows][:, :, :need]
        return k_all, v_all, ctx
