"""Greedy autoregressive decoding from a trained language model."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.transformer import MoELanguageModel
from repro.serve.kvcache import KVCache
from repro.tensor import no_grad

__all__ = ["generate"]


def generate(
    model: MoELanguageModel,
    prompt: np.ndarray,
    max_new_tokens: int,
    use_cache: bool = True,
) -> np.ndarray:
    """Greedy continuation of ``prompt``, one argmax token at a time.

    Parameters
    ----------
    model:
        The language model (switched to eval mode for the duration).
    prompt:
        Integer array (B, T0) of prompt tokens; T0 >= 1.
    max_new_tokens:
        How many tokens to append.
    use_cache:
        Decode through a :class:`~repro.serve.kvcache.KVCache`: prefill
        the prompt once, then O(1) work per token. Past ``max_seq_len``
        the sliding window re-prefills (positions shift), matching the
        uncached path's numerics exactly. ``False`` re-runs the full
        window every token (the sequential baseline).

    Returns
    -------
    np.ndarray
        (B, T0 + max_new_tokens) tokens, with the prompt as prefix.
    """
    prompt = np.asarray(prompt)
    if prompt.ndim != 2 or prompt.shape[1] < 1:
        raise ConfigError(f"prompt must be (B, T>=1), got shape {prompt.shape}")
    if not np.issubdtype(prompt.dtype, np.integer):
        raise ConfigError(
            f"prompt must be an integer token array, got dtype {prompt.dtype}"
        )
    if max_new_tokens < 1:
        raise ConfigError(f"max_new_tokens must be >= 1, got {max_new_tokens}")

    was_training = model.training
    model.eval()
    tokens = prompt.astype(np.int64)
    window_len = model.config.max_seq_len
    cache = (
        KVCache.for_model(model, batch_size=tokens.shape[0], capacity=window_len)
        if use_cache
        else None
    )
    try:
        with no_grad():
            for _ in range(max_new_tokens):
                window = tokens[:, -window_len:]
                if cache is None:
                    logits = model(window).data[:, -1, :]  # (B, V)
                elif cache.max_length == window.shape[1] - 1:
                    # Steady state: only the newest token is uncached.
                    logits = model(tokens[:, -1:], kv_cache=cache).data[:, -1, :]
                else:
                    # First step — or the window slid past max_seq_len, so
                    # every cached position's embedding changed: re-prefill.
                    cache.reset()
                    logits = model(window, kv_cache=cache).data[:, -1, :]
                nxt = logits.argmax(axis=-1)
                tokens = np.concatenate([tokens, nxt[:, None]], axis=1)
    finally:
        if was_training:
            model.train()
    return tokens
