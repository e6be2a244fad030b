"""Greedy generation API."""

import numpy as np
import pytest

from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.models import build_model, generate, tiny_config
from repro.train import Adam, Trainer

RNG = np.random.default_rng(0)
CFG = tiny_config()


class TestGenerate:
    def _model(self):
        return build_model(CFG, seed=1)

    def test_output_shape(self):
        model = self._model()
        prompt = RNG.integers(0, CFG.vocab_size, size=(2, 3))
        out = generate(model, prompt, max_new_tokens=5)
        assert out.shape == (2, 8)
        assert np.array_equal(out[:, :3], prompt)

    def test_tokens_in_vocab(self):
        model = self._model()
        out = generate(model, RNG.integers(0, CFG.vocab_size, size=(1, 2)), 10)
        assert out.min() >= 0 and out.max() < CFG.vocab_size

    def test_greedy_deterministic(self):
        model = self._model()
        prompt = RNG.integers(0, CFG.vocab_size, size=(1, 4))
        a = generate(model, prompt, 6)
        b = generate(model, prompt, 6)
        assert np.array_equal(a, b)

    def test_window_clipping_beyond_max_seq_len(self):
        model = self._model()
        prompt = RNG.integers(0, CFG.vocab_size, size=(1, CFG.max_seq_len))
        out = generate(model, prompt, 3)
        assert out.shape[1] == CFG.max_seq_len + 3

    def test_restores_training_mode(self):
        model = self._model().train()
        generate(model, RNG.integers(0, CFG.vocab_size, size=(1, 2)), 1)
        assert model.training

    def test_trained_model_generates_structure(self):
        """After training on predictability=1.0 data, greedy generation
        follows the successor table."""
        cfg = tiny_config()
        corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, predictability=1.0, seed=3)
        model = build_model(cfg, seed=2)
        loader = ShardedLoader(corpus, 8, 16)
        Trainer(model, Adam(model.parameters(), lr=3e-3)).fit(loader, 80)
        start = np.array([[5]])
        out = generate(model, start, 10)[0]
        follows = sum(out[i + 1] == corpus.successor[out[i]] for i in range(len(out) - 1))
        assert follows >= 7  # mostly on the learned rule

    def test_invalid_args(self):
        model = self._model()
        prompt = RNG.integers(0, CFG.vocab_size, size=(1, 2))
        with pytest.raises(ConfigError):
            generate(model, prompt.ravel(), 1)
        with pytest.raises(ConfigError):
            generate(model, prompt, 0)
