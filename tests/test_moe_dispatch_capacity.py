"""Dispatch plans and capacity enforcement (token conservation invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.moe import (
    build_dispatch,
    expert_capacity,
    experts_of_rank,
    load_balance_loss,
    load_stats,
)
from repro.models.moe_layer import MoELayer
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


def _first_come_keep(indices, cap):
    """The per-slot claim loop the one capacity rule must equal: slots claim
    their expert's buffer in batch order; a full buffer drops the slot."""
    n, k = indices.shape
    fill = {}
    keep = np.zeros((n, k), dtype=bool)
    for token in range(n):
        for slot in range(k):
            e = indices[token, slot]
            if fill.get(e, 0) < cap:
                keep[token, slot] = True
                fill[e] = fill.get(e, 0) + 1
    return keep


def _kept_pairs(plan):
    return sorted(zip(plan.token_idx.tolist(), plan.slot_idx.tolist()))


class TestApplyCapacity:
    """Capacity is a ``build_dispatch`` argument: the first ``capacity``
    slots of each expert, in batch order, are kept."""

    def test_no_drops_when_under_capacity(self):
        indices = np.array([[0], [1], [2], [3]])
        plan = build_dispatch(indices, 4, expert_capacity(4, 4, 1, 1.0))
        assert plan.num_slots == 4
        assert plan.counts.tolist() == [1, 1, 1, 1]

    def test_drops_overflow(self):
        indices = np.zeros((8, 1), dtype=np.int64)  # everyone wants expert 0
        cap = expert_capacity(8, 4, 1, 1.0)
        assert cap == 2
        plan = build_dispatch(indices, 4, cap)
        assert plan.num_slots == 2
        assert plan.counts.tolist() == [2, 0, 0, 0]
        assert plan.offsets.tolist() == [0, 2, 2, 2, 2]

    def test_batch_order_priority(self):
        indices = np.zeros((4, 1), dtype=np.int64)
        plan = build_dispatch(indices, 4, 1)
        assert plan.token_idx.tolist() == [0]  # earliest token wins

    def test_positions_within_capacity(self):
        """A kept slot's place in its expert's segment is below capacity."""
        indices = np.array([[0], [0], [1], [0]])
        cap = expert_capacity(4, 2, 1, 2.0)
        plan = build_dispatch(indices, 2, cap)
        places = np.arange(plan.num_slots) - plan.offsets[plan.expert_idx]
        assert places.max() < cap

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_kept_never_exceeds_capacity(self, n, e, factor):
        rng = np.random.default_rng(n * e)
        indices = rng.integers(0, e, size=(n, 1))
        cap = expert_capacity(n, e, 1, factor)
        plan = build_dispatch(indices, e, cap)
        assert plan.counts.max() <= cap
        assert np.array_equal(plan.counts, np.minimum(np.bincount(indices[:, 0], minlength=e), cap))


class TestOneCapacityRule:
    """``build_dispatch(..., capacity=c)`` equals the first-come claim loop."""

    @given(
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_claim_loop(self, n, e, k, c, seed):
        rng = np.random.default_rng(seed)
        # Skewed routing, so small caps drop and large ones (c >= N*k) don't.
        indices = np.minimum(rng.zipf(1.5, size=(n, k)) - 1, e - 1)
        keep = _first_come_keep(indices, c)
        plan = build_dispatch(indices, e, c)
        full = build_dispatch(indices, e)
        tok, slot = np.nonzero(keep)
        assert _kept_pairs(plan) == sorted(zip(tok.tolist(), slot.tolist()))
        assert np.array_equal(plan.counts, np.bincount(indices[keep], minlength=e))
        # The kept slots are the uncapped plan's, in the same order.
        assert np.array_equal(plan.expert_idx, full.expert_idx[keep[full.token_idx, full.slot_idx]])
        assert np.array_equal(plan.token_idx, full.token_idx[keep[full.token_idx, full.slot_idx]])
        assert np.array_equal(plan.offsets, np.concatenate([[0], np.cumsum(plan.counts)]))
        if c >= n * k:
            assert keep.all() and _kept_pairs(plan) == _kept_pairs(full)

    @given(
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.floats(min_value=0.1, max_value=3.0),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_caps_are_their_min(self, n, e, k, factor, c, seed):
        """A training buffer and a serving bound keep what both claim loops
        keep, which is what one cap of their ``min`` keeps."""
        indices = np.random.default_rng(seed).integers(0, e, size=(n, k))
        train = expert_capacity(n, e, k, factor)
        keep = _first_come_keep(indices, train) & _first_come_keep(indices, c)
        plan = build_dispatch(indices, e, min(train, c))
        tok, slot = np.nonzero(keep)
        assert _kept_pairs(plan) == sorted(zip(tok.tolist(), slot.tolist()))

    def test_cap_of_one(self):
        indices = np.array([[2, 0], [0, 2], [1, 0]])
        plan = build_dispatch(indices, 3, 1)
        assert _kept_pairs(plan) == [(0, 0), (0, 1), (2, 0)]
        assert plan.counts.tolist() == [1, 1, 1]

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            build_dispatch(np.array([[0]]), 1, 0)

    @pytest.mark.parametrize("factor", [None, 0.5, 1.5])
    @pytest.mark.parametrize("inference_capacity", [1, 2, 3, 5, 40])
    def test_layer_drop_fraction_is_the_serving_form(self, factor, inference_capacity):
        """In eval, ``last_drop_fraction`` has the bits of the serving form
        ``1.0 - keep.mean()`` over the claim loop's keep mask."""
        layer = MoELayer(d_model=8, d_ff=16, num_experts=4, rng=np.random.default_rng(5),
                         gate="topk", top_k=2, capacity_factor=factor)
        layer.eval()
        layer.inference_capacity = inference_capacity
        x = Tensor(np.random.default_rng(7).normal(size=(21, 8)).astype(np.float32))
        layer(x)
        indices = layer.gate(layer.router(x), np.random.default_rng(0)).indices
        cap = inference_capacity
        if factor is not None:
            cap = min(cap, expert_capacity(21, 4, 2, factor))
        keep = _first_come_keep(indices, cap)
        assert layer.last_drop_fraction == float(1.0 - keep.mean())
        assert layer.last_drop_fraction > 0 or keep.all()


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
        lo, mid, hi = plan.offsets.tolist()
        assert plan.token_idx[lo:mid].tolist() == [1]
        assert sorted(plan.token_idx[mid:hi].tolist()) == [0, 2]

    def test_keep_mask_excludes(self):
        """A capacity excludes the overflow slots from the plan."""
        indices = np.array([[0], [0], [1]])
        plan = build_dispatch(indices, 2, capacity=1)
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
