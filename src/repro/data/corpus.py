"""Synthetic pretraining corpus.

Substitutes the paper's proprietary 1.8 TB multimodal corpus with a
Zipf-distributed Markov token stream:

* unigram frequencies follow Zipf's law (like natural text), which is what
  skews content-based MoE routing — the effect the load-balance
  experiments need;
* a hidden first-order structure (each token's successor is drawn from a
  per-token distribution) makes the stream *learnable*, so training loss
  decreases and convergence experiments are meaningful.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.seeding import derive_seed

__all__ = ["SyntheticCorpus"]


class SyntheticCorpus:
    """Deterministic synthetic token stream.

    Parameters
    ----------
    vocab_size:
        Number of distinct tokens.
    zipf_alpha:
        Zipf exponent of the stationary distribution (~1.0 for text).
    predictability:
        Probability that the next token follows the hidden per-token
        successor table instead of being sampled from the Zipf marginal.
        0 = i.i.d. noise (irreducible loss = entropy of the marginal);
        higher = more learnable structure.
    seed:
        Base seed; all sampling derives from it.
    """

    def __init__(
        self,
        vocab_size: int = 1024,
        zipf_alpha: float = 1.1,
        predictability: float = 0.7,
        seed: int = 0,
    ):
        if vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {vocab_size}")
        if zipf_alpha <= 0:
            raise ConfigError(f"zipf_alpha must be > 0, got {zipf_alpha}")
        if not 0.0 <= predictability <= 1.0:
            raise ConfigError(f"predictability must be in [0,1], got {predictability}")
        self.vocab_size = vocab_size
        self.zipf_alpha = zipf_alpha
        self.predictability = predictability
        self.seed = seed

        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        probs = ranks**-zipf_alpha
        self.marginal = probs / probs.sum()

        #: Hidden successor table: one fixed random permutation.
        self.successor = np.random.default_rng(
            derive_seed(seed, "succ-table", 0)
        ).permutation(vocab_size)

    def sample(self, num_tokens: int, stream: int = 0) -> np.ndarray:
        """A deterministic token array of length ``num_tokens``.

        Different ``stream`` values give independent (but reproducible)
        slices of the corpus — used to shard across data-parallel ranks.
        """
        if num_tokens < 1:
            raise ConfigError(f"num_tokens must be >= 1, got {num_tokens}")
        rng = np.random.default_rng(derive_seed(self.seed, "sample", stream))
        table = self.successor
        out = np.empty(num_tokens, dtype=np.int64)
        out[0] = rng.choice(self.vocab_size, p=self.marginal)
        follow = rng.random(num_tokens) < self.predictability
        noise = rng.choice(self.vocab_size, size=num_tokens, p=self.marginal)
        for i in range(1, num_tokens):
            out[i] = table[out[i - 1]] if follow[i] else noise[i]
        return out

    def batch(
        self, batch_size: int, seq_len: int, stream: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """(tokens, targets) arrays of shape (batch_size, seq_len).

        Targets are the next-token shift of the same stream.
        """
        flat = self.sample(batch_size * (seq_len + 1), stream=stream)
        block = flat[: batch_size * (seq_len + 1)].reshape(batch_size, seq_len + 1)
        return block[:, :-1].copy(), block[:, 1:].copy()

    def entropy_bits(self) -> float:
        """Shannon entropy of the marginal (context-free loss floor, bits)."""
        p = self.marginal
        return float(-(p * np.log2(p)).sum())
