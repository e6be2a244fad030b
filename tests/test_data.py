"""Synthetic corpus and sharded loader: determinism, disjointness, Zipf shape."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import Batch, ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError, PartitionError


class TestCorpus:
    def test_tokens_in_range(self):
        c = SyntheticCorpus(vocab_size=64, seed=0)
        sample = c.sample(1000)
        assert sample.min() >= 0
        assert sample.max() < 64

    def test_deterministic(self):
        a = SyntheticCorpus(vocab_size=64, seed=1).sample(100)
        b = SyntheticCorpus(vocab_size=64, seed=1).sample(100)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        c = SyntheticCorpus(vocab_size=64, seed=1)
        assert not np.array_equal(c.sample(100, stream=0), c.sample(100, stream=1))

    def test_zipf_marginal_is_skewed(self):
        c = SyntheticCorpus(vocab_size=100, zipf_alpha=1.2, seed=0)
        assert c.marginal[0] > 10 * c.marginal[50]
        assert c.marginal.sum() == pytest.approx(1.0)

    def test_predictable_stream_has_structure(self):
        """With predictability=1 every transition follows the table."""
        c = SyntheticCorpus(vocab_size=32, predictability=1.0, seed=2)
        s = c.sample(500)
        follows = sum(s[i + 1] == c.successor[s[i]] for i in range(len(s) - 1))
        assert follows == len(s) - 1

    def test_unpredictable_stream_has_no_structure(self):
        c = SyntheticCorpus(vocab_size=32, predictability=0.0, seed=2)
        s = c.sample(2000)
        follows = sum(s[i + 1] == c.successor[s[i]] for i in range(len(s) - 1))
        assert follows < 300  # chance level for a Zipf marginal

    def test_batch_shapes_and_shift(self):
        c = SyntheticCorpus(vocab_size=64, seed=0)
        tokens, targets = c.batch(4, 16, stream=3)
        assert tokens.shape == targets.shape == (4, 16)
        # Targets are the next-token shift of the same underlying block.
        assert np.array_equal(tokens[:, 1:], targets[:, :-1])

    def test_entropy_positive(self):
        c = SyntheticCorpus(vocab_size=64)
        assert 0 < c.entropy_bits() < np.log2(64) + 1e-9

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            SyntheticCorpus(vocab_size=1)
        with pytest.raises(ConfigError):
            SyntheticCorpus(predictability=1.5)
        with pytest.raises(ConfigError):
            SyntheticCorpus(zipf_alpha=0.0)
        with pytest.raises(ConfigError):
            SyntheticCorpus().sample(0)


class TestShardedLoader:
    def _corpus(self):
        return SyntheticCorpus(vocab_size=64, seed=5)

    def test_batch_shape(self):
        loader = ShardedLoader(self._corpus(), batch_size=3, seq_len=8)
        b = loader.get_batch(0)
        assert isinstance(b, Batch)
        assert b.tokens.shape == (3, 8)
        assert b.num_tokens == 24

    def test_deterministic_per_step(self):
        loader = ShardedLoader(self._corpus(), 2, 8)
        assert np.array_equal(loader.get_batch(5).tokens, loader.get_batch(5).tokens)

    def test_ranks_get_disjoint_streams(self):
        c = self._corpus()
        l0 = ShardedLoader(c, 2, 8, dp_rank=0, dp_size=4)
        l1 = ShardedLoader(c, 2, 8, dp_rank=1, dp_size=4)
        assert not np.array_equal(l0.get_batch(0).tokens, l1.get_batch(0).tokens)

    def test_steps_get_fresh_data(self):
        loader = ShardedLoader(self._corpus(), 2, 8)
        assert not np.array_equal(loader.get_batch(0).tokens, loader.get_batch(1).tokens)

    def test_stream_ids_do_not_collide_across_rank_step(self):
        """Rank r step s uses stream s*P+r: verify no accidental reuse."""
        c = self._corpus()
        seen = set()
        for step in range(3):
            for rank in range(4):
                loader = ShardedLoader(c, 1, 8, dp_rank=rank, dp_size=4)
                key = loader.get_batch(step).tokens.tobytes()
                assert key not in seen
                seen.add(key)

    def test_global_batch_tokens(self):
        loader = ShardedLoader(self._corpus(), 4, 16, dp_rank=0, dp_size=8)
        assert loader.global_batch_tokens == 4 * 16 * 8

    def test_invalid_coords(self):
        with pytest.raises(PartitionError):
            ShardedLoader(self._corpus(), 1, 8, dp_rank=4, dp_size=4)
        with pytest.raises(PartitionError):
            ShardedLoader(self._corpus(), 0, 8)
        with pytest.raises(PartitionError):
            ShardedLoader(self._corpus(), 1, 8).get_batch(-1)

    @given(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_batch_pure_function_of_step(self, step, dp_size):
        c = SyntheticCorpus(vocab_size=32, seed=9)
        loader = ShardedLoader(c, 1, 4, dp_rank=0, dp_size=dp_size)
        a = loader.get_batch(step)
        b = loader.get_batch(step)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.targets, b.targets)
