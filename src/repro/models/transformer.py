"""Transformer blocks and the MoE language model."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.attention import CausalSelfAttention
from repro.models.configs import ModelConfig
from repro.models.layers import MLP, Embedding, LayerNorm, Linear
from repro.models.module import Module
from repro.models.moe_layer import MoELayer
from repro.tensor import Tensor, cross_entropy
from repro.tensor.checkpoint import checkpoint
from repro.utils.seeding import derive_seed

__all__ = ["TransformerBlock", "MoELanguageModel", "build_model"]


class TransformerBlock(Module):
    """Pre-norm block: ``x + attn(ln(x))`` then ``x + ffn(ln(x))``.

    The FFN is either a dense :class:`MLP` or a :class:`MoELayer`.
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        ffn: Module,
        rng: np.random.Generator,
        dtype: str = "fp32",
        recompute: bool = False,
    ):
        super().__init__()
        self.ln_attn = LayerNorm(d_model, dtype=dtype)
        self.attn = CausalSelfAttention(d_model, n_heads, rng, dtype=dtype)
        self.ln_ffn = LayerNorm(d_model, dtype=dtype)
        self.ffn = ffn
        #: Recompute the attention sublayer (and the FFN, if it is
        #: ``recomputable``) in backward. MoE and tensor-parallel FFNs are
        #: never checkpointed: their aux loss and collectives must run
        #: exactly once per step.
        self.recompute = recompute

    def _attn_sublayer(self, x: Tensor, kv=None, valid=None) -> Tensor:
        return self.attn(self.ln_attn(x), kv=kv, valid=valid)

    def _ffn_sublayer(self, x: Tensor) -> Tensor:
        return self.ffn(self.ln_ffn(x))

    def forward(self, x: Tensor, kv=None, valid=None) -> Tensor:
        use_ckpt = self.recompute and self.training and kv is None
        if use_ckpt:
            h = checkpoint(self._attn_sublayer, x)
        else:
            h = self._attn_sublayer(x, kv=kv, valid=valid)
        x = x + h
        if use_ckpt and self.ffn.recomputable:
            h = checkpoint(self._ffn_sublayer, x)
        else:
            h = self._ffn_sublayer(x)
        return x + h

    @property
    def is_moe(self) -> bool:
        return isinstance(self.ffn, MoELayer)


def _aux_loss_of(blocks) -> Tensor | None:
    """Sum, in depth order, of the auxiliary losses the MoE FFNs of
    ``blocks`` produced in their most recent forward (None if none did)."""
    losses = [
        b.ffn.last_aux_loss for b in blocks if b.is_moe and b.ffn.last_aux_loss is not None
    ]
    return sum(losses[1:], losses[0]) if losses else None


class MoELanguageModel(Module):
    """GPT-style causal LM whose FFN layers may be Mixture-of-Experts.

    Build from a :class:`~repro.models.configs.ModelConfig`; blocks at
    positions where ``(i + 1) % moe_every == 0`` get an MoE FFN, others a
    dense MLP (``moe_every=1`` makes every block MoE, the BaGuaLu layout).
    """

    def __init__(self, config: ModelConfig, seed: int = 0, moe_factory=None,
                 mlp_factory=None):
        """``moe_factory(layer_idx, rng) -> Module`` overrides how MoE FFNs
        are built — the hook :mod:`repro.parallel.moda` uses to substitute
        :class:`~repro.parallel.ep.DistributedMoELayer`. ``mlp_factory``
        does the same for the *dense* FFN blocks (positions not on the
        ``moe_every`` grid), which is how tensor parallelism swaps in
        :class:`~repro.parallel.tp.TensorParallelMLP`. Both factories must
        consume the shared per-block rng exactly like the layer they
        replace, so replicated weights stay bit-identical across ranks."""
        super().__init__()
        self.config = config
        # Every component draws from its own derived seed, so any *slice*
        # of the model (e.g. one pipeline stage) can be constructed
        # independently with identical weights.
        base = derive_seed(seed, "model", config.name)
        dt = config.dtype

        emb_rng = np.random.default_rng(derive_seed(base, "emb"))
        self.tok_emb = Embedding(config.vocab_size, config.d_model, emb_rng, dtype=dt)
        self.pos_emb = Embedding(config.max_seq_len, config.d_model, emb_rng, dtype=dt)

        blocks = []
        for i in range(config.n_layers):
            rng = np.random.default_rng(derive_seed(base, "block", i))
            if (i + 1) % config.moe_every == 0:
                if moe_factory is not None:
                    ffn: Module = moe_factory(i, rng)
                else:
                    ffn = MoELayer(
                        config.d_model,
                        config.d_ff,
                        config.num_experts,
                        rng,
                        gate=config.gate,
                        top_k=config.top_k,
                        capacity_factor=config.capacity_factor,
                        aux_weight=config.aux_weight,
                        dtype=dt,
                    )
            elif mlp_factory is not None:
                ffn = mlp_factory(i, rng)
            else:
                ffn = MLP(config.d_model, config.d_ff, rng, dtype=dt)
            blocks.append(
                TransformerBlock(
                    config.d_model, config.n_heads, ffn, rng,
                    dtype=dt, recompute=config.recompute,
                )
            )
        self.register_module_list("blocks", blocks)
        head_rng = np.random.default_rng(derive_seed(base, "head"))
        self.ln_f = LayerNorm(config.d_model, dtype=dt)
        self.lm_head = Linear(config.d_model, config.vocab_size, head_rng, dtype=dt)

    # ------------------------------------------------------------------ #
    # Forward / loss
    # ------------------------------------------------------------------ #

    def forward(
        self,
        tokens: np.ndarray,
        kv_cache=None,
        rows: np.ndarray | None = None,
        valid: np.ndarray | None = None,
    ) -> Tensor:
        """Logits (B, T, V) for integer token ids (B, T).

        With ``kv_cache`` (a :class:`~repro.serve.kvcache.KVCache`) the
        input holds only the *new* tokens per row; attention reads cached
        history, positions continue from each row's committed length, and
        the cache is committed once after all blocks ran. ``rows`` maps
        batch entries to cache rows (default 0..B-1) and ``valid[b]``
        bounds the real (non-padding) tokens of row b — the incremental
        path continuous batching uses for ragged prefill + decode.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ConfigError(f"tokens must be (B, T), got shape {tokens.shape}")
        b, t = tokens.shape
        if kv_cache is None:
            if t > self.config.max_seq_len:
                raise ConfigError(
                    f"sequence length {t} exceeds max_seq_len={self.config.max_seq_len}"
                )
            pos = np.arange(t)
            x = self.tok_emb(tokens) + self.pos_emb(pos)
            for block in self.blocks:
                x = block(x)
            x = self.ln_f(x)
            return self.lm_head(x)

        rows = np.arange(b) if rows is None else np.asarray(rows, dtype=np.int64)
        if rows.shape != (b,):
            raise ConfigError(f"rows must be (B,)={b}, got shape {rows.shape}")
        if valid is None:
            valid = np.full(b, t, dtype=np.int64)
        else:
            valid = np.asarray(valid, dtype=np.int64)
            if valid.shape != (b,) or (valid < 1).any() or (valid > t).any():
                raise ConfigError(f"valid must be (B,) in [1, {t}], got {valid}")
        ctx = kv_cache.lengths[rows]
        if int((ctx + valid).max()) > self.config.max_seq_len:
            raise ConfigError(
                f"cached decode to length {int((ctx + valid).max())} exceeds "
                f"max_seq_len={self.config.max_seq_len}; reset() the row and "
                "re-prefill a window"
            )
        # Positions continue where each row's cache left off; padding
        # positions are clamped into the embedding table (their outputs
        # are discarded by the caller).
        pos = np.minimum(
            ctx[:, None] + np.arange(t)[None, :], self.config.max_seq_len - 1
        )
        x = self.tok_emb(tokens) + self.pos_emb(pos)
        for i, block in enumerate(self.blocks):
            x = block(x, kv=kv_cache.layer(i, rows), valid=valid)
        x = self.ln_f(x)
        logits = self.lm_head(x)
        kv_cache.commit(rows, valid)
        return logits

    def moe_layers(self) -> list[MoELayer]:
        """All MoE FFN layers in depth order (local or distributed)."""
        return [b.ffn for b in self.blocks if b.is_moe]

    def aux_loss(self) -> Tensor | None:
        """Sum of the auxiliary losses from the most recent forward."""
        return _aux_loss_of(self.blocks)

    def loss(self, tokens: np.ndarray, targets: np.ndarray) -> Tensor:
        """Mean cross-entropy over (B, T) targets plus auxiliary losses."""
        logits = self.forward(tokens)
        b, t, v = logits.shape
        ce = cross_entropy(logits.reshape(b * t, v), np.asarray(targets).reshape(-1))
        aux = self.aux_loss()
        return ce if aux is None else ce + aux

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def expert_load(self) -> np.ndarray | None:
        """Summed per-expert loads from the most recent forward."""
        layers = self.moe_layers()
        if not layers or layers[0].last_load is None:
            return None
        total = np.zeros(self.config.num_experts, dtype=np.int64)
        for m in layers:
            if m.last_load is not None:
                total += m.last_load
        return total


def build_model(config: ModelConfig, seed: int = 0) -> MoELanguageModel:
    """Factory mirroring the config presets."""
    return MoELanguageModel(config, seed=seed)
