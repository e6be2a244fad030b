"""Dispatch plans and capacity enforcement (token conservation invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.moe import (
    apply_capacity,
    build_dispatch,
    expert_capacity,
    experts_of_rank,
    load_balance_loss,
    load_stats,
    router_z_loss,
)
from repro.tensor import Tensor


class TestExpertCapacity:
    def test_uniform_fit(self):
        assert expert_capacity(64, 8, 1, 1.0) == 8

    def test_factor_scales(self):
        assert expert_capacity(64, 8, 1, 2.0) == 16

    def test_topk_scales(self):
        assert expert_capacity(64, 8, 2, 1.0) == 16

    def test_minimum_one(self):
        assert expert_capacity(1, 64, 1, 0.1) == 1

    def test_invalid(self):
        with pytest.raises(ConfigError):
            expert_capacity(10, 2, 1, 0.0)


class TestApplyCapacity:
    def test_no_drops_when_under_capacity(self):
        indices = np.array([[0], [1], [2], [3]])
        cap = apply_capacity(indices, 4, 1.0)
        assert cap.dropped == 0
        assert cap.keep_mask.all()

    def test_drops_overflow(self):
        indices = np.zeros((8, 1), dtype=np.int64)  # everyone wants expert 0
        cap = apply_capacity(indices, 4, 1.0)
        assert cap.capacity == 2
        assert cap.keep_mask.sum() == 2
        assert cap.dropped == 6
        assert cap.drop_fraction == pytest.approx(6 / 8)

    def test_batch_order_priority(self):
        indices = np.zeros((4, 1), dtype=np.int64)
        cap = apply_capacity(indices, 4, 1.0)
        assert cap.keep_mask[0, 0]  # earliest token wins

    def test_explicit_priority(self):
        indices = np.zeros((4, 1), dtype=np.int64)
        priority = np.array([0.0, 0.0, 5.0, 1.0])
        cap = apply_capacity(indices, 4, 1.0, priority=priority)
        assert cap.keep_mask[2, 0]  # highest priority kept

    def test_positions_within_capacity(self):
        indices = np.array([[0], [0], [1], [0]])
        cap = apply_capacity(indices, 2, 2.0)
        kept_positions = cap.positions[cap.keep_mask]
        assert kept_positions.max() < cap.capacity

    def test_bad_priority_shape(self):
        with pytest.raises(ConfigError):
            apply_capacity(np.zeros((3, 1), dtype=int), 2, 1.0, priority=np.zeros(2))

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_kept_never_exceeds_capacity(self, n, e, factor):
        rng = np.random.default_rng(n * e)
        indices = rng.integers(0, e, size=(n, 1))
        cap = apply_capacity(indices, e, factor)
        for expert in range(e):
            kept_here = (indices[cap.keep_mask[:, 0], 0] == expert).sum()
            assert kept_here <= cap.capacity


class TestBuildDispatch:
    def test_sorted_by_expert(self):
        indices = np.array([[2], [0], [1], [0]])
        plan = build_dispatch(indices, 3)
        assert np.all(np.diff(plan.expert_idx) >= 0)

    def test_counts_and_offsets(self):
        indices = np.array([[2], [0], [1], [0]])
        plan = build_dispatch(indices, 3)
        assert plan.counts.tolist() == [2, 1, 1]
        assert plan.offsets.tolist() == [0, 2, 3, 4]
        assert plan.num_slots == 4

    def test_segment_slices(self):
        indices = np.array([[1], [0], [1]])
        plan = build_dispatch(indices, 2)
        assert plan.token_idx[plan.segment(0)].tolist() == [1]
        assert sorted(plan.token_idx[plan.segment(1)].tolist()) == [0, 2]

    def test_keep_mask_excludes(self):
        indices = np.array([[0], [0], [1]])
        keep = np.array([[True], [False], [True]])
        plan = build_dispatch(indices, 2, keep)
        assert plan.num_slots == 2
        assert 1 not in plan.token_idx

    def test_stable_within_expert(self):
        indices = np.array([[0], [0], [0]])
        plan = build_dispatch(indices, 1)
        assert plan.token_idx.tolist() == [0, 1, 2]

    def test_topk_slots_tracked(self):
        indices = np.array([[0, 1], [1, 0]])
        plan = build_dispatch(indices, 2)
        assert plan.num_slots == 4
        pairs = set(zip(plan.token_idx.tolist(), plan.slot_idx.tolist()))
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_out_of_range_expert(self):
        with pytest.raises(ConfigError):
            build_dispatch(np.array([[5]]), 3)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_token_conservation(self, n, e, k):
        """Every kept (token, slot) appears in the plan exactly once."""
        k = min(k, e)
        rng = np.random.default_rng(n + e + k)
        indices = rng.integers(0, e, size=(n, k))
        plan = build_dispatch(indices, e)
        assert plan.num_slots == n * k
        assert plan.counts.sum() == n * k
        recovered = sorted(zip(plan.token_idx.tolist(), plan.slot_idx.tolist()))
        assert recovered == [(t, s) for t in range(n) for s in range(k)]
        # Expert ids in the plan match the routing table.
        assert np.all(indices[plan.token_idx, plan.slot_idx] == plan.expert_idx)


class TestOwnership:
    def test_experts_of_rank(self):
        assert list(experts_of_rank(1, 8, 4)) == [2, 3]

    def test_roundtrip(self):
        owned = [e for r in range(3) for e in experts_of_rank(r, 12, 3)]
        assert owned == list(range(12))

    def test_bad_divisor(self):
        with pytest.raises(ConfigError):
            experts_of_rank(0, 7, 2)


class TestBalanceLosses:
    def test_uniform_routing_gives_one(self):
        n, e = 64, 8
        probs = Tensor(np.full((n, e), 1.0 / e), dtype="fp64")
        indices = np.arange(n).reshape(-1, 1) % e
        loss = load_balance_loss(probs, indices, e)
        assert loss.item() == pytest.approx(1.0)

    def test_collapsed_routing_gives_e(self):
        n, e = 64, 8
        probs = np.zeros((n, e))
        probs[:, 0] = 1.0
        loss = load_balance_loss(Tensor(probs, dtype="fp64"), np.zeros((n, 1), dtype=int), e)
        assert loss.item() == pytest.approx(e)

    def test_loss_differentiable(self):
        probs = Tensor(np.random.default_rng(0).dirichlet(np.ones(4), size=16), dtype="fp64")
        probs.requires_grad = True
        indices = np.random.default_rng(1).integers(0, 4, size=(16, 1))
        load_balance_loss(probs, indices, 4).backward()
        assert probs.grad is not None

    def test_z_loss_zero_logits(self):
        logits = Tensor(np.zeros((4, 8)), dtype="fp64")
        assert router_z_loss(logits).item() == pytest.approx(np.log(8) ** 2)

    def test_z_loss_penalizes_large_logits(self):
        small = router_z_loss(Tensor(np.zeros((4, 8)), dtype="fp64")).item()
        large = router_z_loss(Tensor(np.full((4, 8), 50.0), dtype="fp64")).item()
        assert large > small

    def test_empty_probs_rejected(self):
        with pytest.raises(ConfigError):
            load_balance_loss(Tensor(np.zeros((0, 4))), np.zeros((0, 1), dtype=int), 4)


class TestLoadStats:
    def test_uniform(self):
        s = load_stats(np.array([4, 4, 4, 4]))
        assert s.imbalance == 1.0
        assert s.cv == 0.0

    def test_skewed(self):
        s = load_stats(np.array([12, 2, 1, 1]))
        assert s.imbalance == pytest.approx(3.0)
        assert s.cv > 0

    def test_zero_loads(self):
        s = load_stats(np.zeros(4))
        assert s.imbalance == 1.0

    def test_invalid(self):
        with pytest.raises(ConfigError):
            load_stats(np.zeros((2, 2)))
