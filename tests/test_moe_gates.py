"""Gating strategies: correctness and balance properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.moe import BalancedGate, NoisyTopKGate, RandomGate, TopKGate, load_stats, make_gate
from repro.tensor import Tensor

RNG = np.random.default_rng(11)


def logits(n, e, skew=0.0, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, e))
    base[:, 0] += skew  # bias toward expert 0
    return Tensor(base, dtype="fp64")


class TestTopKGate:
    def test_top1_picks_argmax(self):
        gate = TopKGate(num_experts=4, top_k=1)
        x = logits(32, 4, seed=1)
        out = gate(x, RNG)
        assert np.array_equal(out.indices[:, 0], np.argmax(x.data, axis=1))

    def test_top2_ordered_by_prob(self):
        gate = TopKGate(num_experts=6, top_k=2)
        x = logits(16, 6, seed=2)
        out = gate(x, RNG)
        first = x.data[np.arange(16), out.indices[:, 0]]
        second = x.data[np.arange(16), out.indices[:, 1]]
        assert np.all(first >= second)

    def test_top2_slots_distinct(self):
        gate = TopKGate(num_experts=4, top_k=2)
        out = gate(logits(64, 4, seed=3), RNG)
        assert np.all(out.indices[:, 0] != out.indices[:, 1])

    def test_combine_weights_normalized(self):
        gate = TopKGate(num_experts=8, top_k=2)
        out = gate(logits(20, 8, seed=4), RNG)
        assert np.allclose(out.combine_weights.data.sum(axis=1), 1.0, atol=1e-6)

    def test_combine_weights_differentiable(self):
        gate = TopKGate(num_experts=4, top_k=1)
        x = logits(5, 4, seed=5)
        x.requires_grad = True
        out = gate(x, RNG)
        out.combine_weights.sum().backward()
        assert x.grad is not None

    def test_load_counts_sum(self):
        gate = TopKGate(num_experts=4, top_k=2)
        out = gate(logits(30, 4, seed=6), RNG)
        assert out.load.sum() == 30 * 2

    def test_skewed_logits_give_skewed_load(self):
        gate = TopKGate(num_experts=8, top_k=1)
        out = gate(logits(256, 8, skew=3.0, seed=7), RNG)
        stats = load_stats(out.load)
        assert stats.imbalance > 2.0  # expert 0 hogs tokens

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            TopKGate(num_experts=0)
        with pytest.raises(ConfigError):
            TopKGate(num_experts=4, top_k=5)

    def test_wrong_logit_shape(self):
        gate = TopKGate(num_experts=4)
        with pytest.raises(ConfigError):
            gate(logits(8, 5), RNG)


class TestBalancedGate:
    def test_respects_capacity(self):
        gate = BalancedGate(num_experts=8, top_k=1)
        out = gate(logits(256, 8, skew=5.0, seed=8), RNG)
        stats = load_stats(out.load)
        assert stats.max <= np.ceil(256 / 8)
        assert stats.imbalance <= 1.01

    def test_no_tokens_dropped(self):
        gate = BalancedGate(num_experts=4, top_k=2)
        out = gate(logits(64, 4, skew=10.0, seed=9), RNG)
        assert out.load.sum() == 64 * 2

    def test_beats_topk_on_skewed_stream(self):
        """The F5 headline: balanced gating flattens Zipf-induced skew."""
        x = logits(512, 16, skew=4.0, seed=10)
        topk = TopKGate(16, 1)(x, RNG)
        bal = BalancedGate(16, 1)(x, RNG)
        assert load_stats(bal.load).imbalance < load_stats(topk.load).imbalance

    def test_unconstrained_matches_preference(self):
        """When no expert is preferred by more tokens than its capacity,
        balanced behaves like top-1."""
        x = logits(8, 4, seed=11)
        x.data[np.arange(8), np.arange(8) % 4] += 10.0  # two tokens per expert
        bal = BalancedGate(4, 1)(x, RNG)
        top = TopKGate(4, 1)(x, RNG)
        assert np.array_equal(bal.indices, top.indices)

    @given(st.integers(min_value=8, max_value=64), st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_capacity_bound_property(self, n, e):
        gate = BalancedGate(num_experts=e, top_k=1)
        out = gate(logits(n, e, skew=3.0, seed=n * e), RNG)
        cap = int(np.ceil(n / e))
        assert out.load.max() <= cap
        assert out.load.sum() == n

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=4),
        st.floats(min_value=0.0, max_value=12.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_topk_slots_distinct_property(self, n, e, k, skew):
        """A spill never sends a token to an expert it already took."""
        k = min(k, e)
        out = BalancedGate(num_experts=e, top_k=k)(
            logits(n, e, skew=skew, seed=n * e + k), RNG
        )
        assert all(len(set(row)) == k for row in out.indices.tolist())
        assert out.load.sum() == n * k


class TestRandomGate:
    def test_balanced_in_expectation(self):
        gate = RandomGate(num_experts=4, top_k=1)
        out = gate(logits(4000, 4, skew=10.0, seed=13), np.random.default_rng(0))
        stats = load_stats(out.load)
        assert stats.imbalance < 1.15  # ignores the skewed content

    def test_topk2_distinct(self):
        gate = RandomGate(num_experts=4, top_k=2)
        out = gate(logits(50, 4, seed=14), np.random.default_rng(0))
        assert np.all(out.indices[:, 0] != out.indices[:, 1])

    def test_deterministic_given_rng(self):
        gate = RandomGate(num_experts=4, top_k=1)
        x = logits(20, 4, seed=15)
        a = gate(x, np.random.default_rng(5)).indices
        b = gate(x, np.random.default_rng(5)).indices
        assert np.array_equal(a, b)


class TestNoisyTopKGate:
    def test_perturbs_log_probs_with_unit_gaussian_noise(self):
        x = logits(32, 8, seed=16)
        out = NoisyTopKGate(8, 1)(x, np.random.default_rng(0))
        noise = np.random.default_rng(0).normal(0.0, 1.0, size=(32, 8))
        expected = (np.log(out.probs.data + 1e-9) + noise).argmax(axis=1)
        assert np.array_equal(out.indices[:, 0], expected)

    def test_noise_changes_some_assignments(self):
        x = logits(256, 8, seed=17)
        noisy = NoisyTopKGate(8, 1)(x, np.random.default_rng(1))
        plain = TopKGate(8, 1)(x, np.random.default_rng(1))
        assert not np.array_equal(noisy.indices, plain.indices)


class TestFactory:
    @pytest.mark.parametrize("name", ["topk", "noisy-topk", "balanced", "random"])
    def test_make_gate(self, name):
        gate = make_gate(name, num_experts=4, top_k=1)
        out = gate(logits(16, 4, seed=18), np.random.default_rng(0))
        assert out.indices.shape == (16, 1)

    def test_unknown_gate(self):
        with pytest.raises(ConfigError):
            make_gate("oracle", 4)
