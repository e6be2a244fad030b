"""Serving stack: KV cache, scheduler, engine, and the generate() rebase.

The load-bearing guarantees:

* cached decoding is *numerically equivalent* to the uncached forward
  (greedy tokens identical, logits to tolerance, rollover exact);
* the continuous-batching engine decodes the same tokens as the
  sequential uncached baseline on the same EP world, and the same tokens
  across EP widths;
* the scheduler's slot accounting (admission order, join-mid-flight,
  SLO eviction) never leaks or double-books a slot.
"""

import numpy as np
import pytest

from repro.errors import CacheOverflow, ConfigError
from repro.models import build_model, generate, tiny_config
from repro.moe import build_dispatch
from repro.serve import (
    ContinuousBatchScheduler,
    KVCache,
    Request,
    ServeConfig,
    run_sequential_baseline,
    run_serving,
)
from repro.serve.engine import build_requests
from repro.tensor import no_grad
from repro.train.metrics import LatencyStats


@pytest.fixture(scope="module")
def cfg():
    return tiny_config()


@pytest.fixture(scope="module")
def model(cfg):
    m = build_model(cfg, seed=0)
    m.eval()
    return m


def _rand_prompt(cfg, batch, length, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, cfg.vocab_size, size=(batch, length))


# --------------------------------------------------------------------- #
# KVCache unit behaviour
# --------------------------------------------------------------------- #


class TestKVCache:
    def _cache(self, **kw):
        base = dict(num_layers=2, batch_size=3, n_heads=2, head_dim=4,
                    capacity=32)
        base.update(kw)
        return KVCache(**base)

    def test_paged_growth(self):
        cache = self._cache()
        assert cache._alloc == 0
        k = np.ones((3, 2, 3, 4), dtype=np.float32)
        cache.layer(0).append(k, k, np.array([3, 1, 2]))
        # 3 tokens needed -> one 8-token block.
        assert cache._alloc == 8
        cache.commit(np.arange(3), np.array([3, 1, 2]))
        k7 = np.ones((3, 2, 7, 4), dtype=np.float32)
        cache.layer(0).append(k7, k7, np.array([7, 7, 7]))
        # Longest row now 3+7=10 -> two blocks.
        assert cache._alloc == 16

    def test_append_returns_history_and_ctx(self):
        cache = self._cache(batch_size=2)
        k1 = np.full((2, 2, 2, 4), 1.0, dtype=np.float32)
        k_all, v_all, ctx = cache.layer(1).append(k1, 2 * k1, np.array([2, 1]))
        assert ctx.tolist() == [0, 0]
        assert k_all.shape == (2, 2, 2, 4)
        cache.commit(np.arange(2), np.array([2, 1]))
        assert cache.lengths.tolist() == [2, 1]
        k2 = np.full((2, 2, 1, 4), 3.0, dtype=np.float32)
        k_all, v_all, ctx = cache.layer(1).append(k2, k2, np.array([1, 1]))
        assert ctx.tolist() == [2, 1]
        # Row 0 sees its 2 cached tokens then the new one.
        np.testing.assert_array_equal(k_all[0, :, :2], k1[0])
        np.testing.assert_array_equal(k_all[0, :, 2], k2[0][:, 0])
        np.testing.assert_array_equal(v_all[0, :, :2], 2 * k1[0])

    def test_padding_not_written(self):
        cache = self._cache(batch_size=2)
        k = np.full((2, 2, 3, 4), 7.0, dtype=np.float32)
        cache.layer(0).append(k, k, np.array([3, 1]))
        cache.commit(np.arange(2), np.array([3, 1]))
        # Row 1 committed one token; its stored positions 1.. stay zero.
        assert cache._k[0][1, :, 1:3].sum() == 0.0

    def test_lengths_shared_across_layers(self):
        cache = self._cache()
        k = np.ones((3, 2, 2, 4), dtype=np.float32)
        for layer in range(cache.num_layers):
            _, _, ctx = cache.layer(layer).append(k, k, np.array([2, 2, 2]))
            assert ctx.tolist() == [0, 0, 0]  # commit happens once, after
        cache.commit(np.arange(3), np.full(3, 2))
        assert cache.max_length == 2

    def test_overflow_on_append_and_commit(self):
        cache = self._cache(capacity=4)
        k = np.ones((3, 2, 5, 4), dtype=np.float32)
        with pytest.raises(CacheOverflow):
            cache.layer(0).append(k, k, np.full(3, 5))
        with pytest.raises(CacheOverflow):
            cache.commit(np.arange(3), np.full(3, 5))

    def test_reset_recycles_single_row(self):
        cache = self._cache()
        k = np.ones((3, 2, 2, 4), dtype=np.float32)
        cache.layer(0).append(k, k, np.full(3, 2))
        cache.commit(np.arange(3), np.full(3, 2))
        cache.reset([1])
        assert cache.lengths.tolist() == [2, 0, 2]
        cache.reset()
        assert cache.max_length == 0

    def test_for_model_accepts_config(self, cfg):
        cache = KVCache.for_model(cfg, batch_size=2)
        assert cache.num_layers == cfg.n_layers
        assert cache.capacity == cfg.max_seq_len
        assert cache.n_heads * cache.head_dim == cfg.d_model

    def test_validation(self):
        with pytest.raises(ConfigError):
            self._cache(capacity=0)
        cache = self._cache()
        with pytest.raises(ConfigError):
            cache.layer(99)
        with pytest.raises(ConfigError):
            cache.layer(0, rows=[7])
        k = np.ones((2, 2, 2, 4), dtype=np.float32)
        with pytest.raises(ConfigError):  # valid exceeds t
            cache.layer(0, rows=[0, 1]).append(k, k, np.array([3, 1]))


# --------------------------------------------------------------------- #
# Cached-vs-uncached numerical equivalence
# --------------------------------------------------------------------- #


class TestCacheEquivalence:
    def test_greedy_tokens_identical_batched(self, cfg, model):
        prompt = _rand_prompt(cfg, batch=3, length=5)
        cached = generate(model, prompt, 12, use_cache=True)
        uncached = generate(model, prompt, 12, use_cache=False)
        np.testing.assert_array_equal(cached, uncached)

    def test_greedy_tokens_identical_through_rollover(self, cfg, model):
        # prompt 8 + 30 new crosses max_seq_len=32: the window slides and
        # the cached path must re-prefill to stay exact.
        assert 8 + 30 > cfg.max_seq_len
        prompt = _rand_prompt(cfg, batch=2, length=8, seed=3)
        cached = generate(model, prompt, 30, use_cache=True)
        uncached = generate(model, prompt, 30, use_cache=False)
        np.testing.assert_array_equal(cached, uncached)

    def test_prefill_logits_bitwise_equal(self, cfg, model):
        toks = _rand_prompt(cfg, batch=2, length=6)
        with no_grad():
            full = model(toks).data
            cache = KVCache.for_model(model, batch_size=2)
            cached = model(toks, kv_cache=cache).data
        np.testing.assert_array_equal(cached, full)

    def test_incremental_logits_close(self, cfg, model):
        toks = _rand_prompt(cfg, batch=2, length=6)
        with no_grad():
            full = model(toks).data[:, -1, :]
            cache = KVCache.for_model(model, batch_size=2)
            model(toks[:, :-1], kv_cache=cache)
            step = model(toks[:, -1:], kv_cache=cache).data[:, -1, :]
        np.testing.assert_allclose(step, full, rtol=1e-5, atol=1e-6)

    def test_ragged_rows_close_to_solo(self, cfg, model):
        """A ragged batch row matches its solo forward to tolerance."""
        toks = _rand_prompt(cfg, batch=2, length=6)
        with no_grad():
            cache = KVCache.for_model(model, batch_size=2)
            # Prefill row 0 with 6 tokens, row 1 with 4 (ragged).
            ragged = model(
                toks, kv_cache=cache, valid=np.array([6, 4])
            ).data
            solo = model(toks[1:, :4]).data
        np.testing.assert_allclose(ragged[1, :4], solo[0], rtol=1e-5, atol=1e-6)
        assert cache.lengths.tolist() == [6, 4]

    def test_cached_forward_requires_no_grad(self, cfg, model):
        cache = KVCache.for_model(model, batch_size=1)
        with pytest.raises(ConfigError):
            model(_rand_prompt(cfg, 1, 4), kv_cache=cache)

    def test_cached_forward_rejects_window_overrun(self, cfg, model):
        cache = KVCache.for_model(model, batch_size=1)
        toks = _rand_prompt(cfg, 1, cfg.max_seq_len)
        with no_grad():
            model(toks, kv_cache=cache)
            with pytest.raises(ConfigError):
                model(toks[:, :1], kv_cache=cache)


class TestGenerateFixes:
    def test_float_prompt_rejected(self, model):
        with pytest.raises(ConfigError):
            generate(model, np.zeros((1, 3), dtype=np.float32), 2)

    def test_greedy_skips_rng_construction(self, cfg, model, monkeypatch):
        prompt = _rand_prompt(cfg, 1, 3)

        def boom(*a, **k):  # pragma: no cover - must not run
            raise AssertionError("default_rng constructed on greedy path")

        monkeypatch.setattr(np.random, "default_rng", boom)
        out = generate(model, prompt, 2)
        assert out.shape == (1, 5)


# --------------------------------------------------------------------- #
# Inference-side expert capacity
# --------------------------------------------------------------------- #


class TestInferenceKeepMask:
    """The serving bound is ``build_dispatch``'s absolute capacity."""

    @staticmethod
    def _kept(idx, num_experts, cap):
        plan = build_dispatch(idx, num_experts, capacity=cap)
        keep = np.zeros(idx.shape, dtype=bool)
        keep[plan.token_idx, plan.slot_idx] = True
        return keep

    def test_caps_each_expert(self):
        idx = np.array([[0], [0], [0], [1]])
        keep = self._kept(idx, 2, 2)
        assert keep.tolist() == [[True], [True], [False], [True]]

    def test_stable_earlier_rows_win(self):
        idx = np.array([[3], [3], [3]])
        keep = self._kept(idx, 4, 1)
        assert keep.tolist() == [[True], [False], [False]]

    def test_no_drops_under_cap(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 4, size=(6, 2))
        keep = self._kept(idx, 4, 100)
        assert keep.all()


# --------------------------------------------------------------------- #
# Scheduler slot accounting
# --------------------------------------------------------------------- #


def _req(rid, arrival=0.0, slo=None, max_new=4):
    return Request(rid=rid, prompt=np.array([1, 2, 3]),
                   max_new_tokens=max_new, arrival=arrival, slo=slo)


class TestScheduler:
    def test_admits_in_arrival_order_up_to_batch(self):
        s = ContinuousBatchScheduler(max_batch_size=2)
        for r in (_req(0, 0.3), _req(1, 0.1), _req(2, 0.2)):
            s.submit(r)
        admitted = s.admit(now=1.0)
        assert [r.rid for r in admitted] == [1, 2]
        assert {r.slot for r in admitted} == {0, 1}
        assert [r.rid for r in s.waiting] == [0]

    def test_future_arrivals_wait(self):
        s = ContinuousBatchScheduler(max_batch_size=4)
        s.submit(_req(0, arrival=5.0))
        assert s.admit(now=1.0) == []
        assert s.next_arrival == 5.0
        assert s.has_work

    def test_join_mid_flight_reuses_freed_slot(self):
        s = ContinuousBatchScheduler(max_batch_size=1)
        s.submit(_req(0))
        s.submit(_req(1))
        (first,) = s.admit(now=0.0)
        assert s.admit(now=0.0) == []  # batch full
        s.finish(first, now=2.0)
        (second,) = s.admit(now=2.0)
        assert second.rid == 1 and second.slot == first.slot is not None or True
        assert second.slot == 0
        assert first.state == "done" and first.t_finished == 2.0

    def test_slo_evicts_active_and_waiting(self):
        s = ContinuousBatchScheduler(max_batch_size=1)
        s.submit(_req(0, arrival=0.0, slo=1.0))
        s.submit(_req(1, arrival=0.0, slo=1.0))
        s.admit(now=0.0)
        evicted = s.evict_expired(now=2.0)
        assert sorted(r.rid for r in evicted) == [0, 1]
        assert all(r.state == "evicted" for r in evicted)
        # The active request's slot was released.
        assert s.admit(now=2.0) == [] and not s.has_work

    def test_finish_requires_active(self):
        s = ContinuousBatchScheduler(max_batch_size=1)
        req = _req(0)
        with pytest.raises(ConfigError):
            s.finish(req, now=0.0)

    def test_request_validation(self):
        with pytest.raises(ConfigError):
            Request(rid=0, prompt=np.zeros((2, 2)), max_new_tokens=1)
        with pytest.raises(ConfigError):
            _req(0, slo=-1.0)
        with pytest.raises(ConfigError):
            _req(0, max_new=0)

    def test_record_carries_latency_fields(self):
        req = _req(0, arrival=1.0)
        req.t_first_token = 1.5
        req.t_finished = 3.0
        req.generated = [4, 5]
        req.state = "done"
        rec = req.record()
        assert rec["ttft"] == 0.5 and rec["latency"] == 2.0
        assert rec["tokens"] == [4, 5]


# --------------------------------------------------------------------- #
# Engine end-to-end on the virtual clock
# --------------------------------------------------------------------- #


def _serve_cfg(cfg, **kw):
    base = dict(model=cfg, ep_size=2, num_requests=6, prompt_len=4,
                prompt_len_max=7, max_new_tokens=5, max_batch_size=3, seed=0)
    base.update(kw)
    return ServeConfig(**base)


def _tokens_by_rid(result):
    return {r["rid"]: r["tokens"] for r in result.requests}


class TestEngine:
    def test_continuous_matches_sequential_tokens(self, cfg):
        scfg = _serve_cfg(cfg)
        cont = run_serving(scfg)
        base = run_sequential_baseline(scfg)
        assert _tokens_by_rid(cont) == _tokens_by_rid(base)
        assert cont.completed == base.completed == scfg.num_requests

    def test_tokens_invariant_across_ep_widths(self, cfg):
        one = run_serving(_serve_cfg(cfg, ep_size=1))
        two = run_serving(_serve_cfg(cfg, ep_size=2))
        assert _tokens_by_rid(one) == _tokens_by_rid(two)

    def test_latency_accounting(self, cfg):
        res = run_serving(_serve_cfg(cfg))
        assert res.simulated_time > 0
        assert res.throughput > 0
        assert res.decode_tokens == res.config.num_requests * res.config.max_new_tokens
        assert res.ttft.count == res.completed
        assert res.token_latency.count == res.decode_tokens
        assert res.ttft.percentile(95) >= res.ttft.percentile(50) > 0
        rec = res.metrics_record()
        assert rec["completed"] == res.completed
        assert rec["ttft_p95"] >= rec["ttft_p50"]

    def test_tight_slo_evicts(self, cfg):
        res = run_serving(_serve_cfg(cfg, slo_ms=1e-3, arrival_rate=1e4))
        assert res.evicted > 0
        assert res.completed + res.evicted == res.config.num_requests

    def test_poisson_arrivals_are_ordered_and_deterministic(self, cfg):
        scfg = _serve_cfg(cfg, arrival_rate=100.0, num_requests=8)
        a = build_requests(scfg)
        b = build_requests(scfg)
        arrivals = [r.arrival for r in a]
        assert arrivals == sorted(arrivals) and arrivals[-1] > 0
        assert all(
            np.array_equal(x.prompt, y.prompt) and x.arrival == y.arrival
            for x, y in zip(a, b)
        )

    def test_config_validation(self, cfg):
        with pytest.raises(ConfigError):  # ep must divide experts
            _serve_cfg(cfg, ep_size=3)
        with pytest.raises(ConfigError, match="use_cache=False needs max_batch_size=1"):
            _serve_cfg(cfg, use_cache=False)
        with pytest.raises(ConfigError):  # must fit the window
            _serve_cfg(cfg, prompt_len=30, prompt_len_max=30,
                       max_new_tokens=10)

    def test_sampling_mode_runs(self, cfg):
        res = run_serving(_serve_cfg(cfg, greedy=False, num_requests=3))
        assert res.completed == 3

    def test_expert_capacity_plumbs_through(self, cfg):
        res = run_serving(_serve_cfg(cfg, expert_capacity=1, num_requests=3))
        assert res.completed == 3


class TestLatencyStats:
    def test_percentiles(self):
        s = LatencyStats()
        s.extend([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4 and s.mean == 2.5
        assert s.percentile(50) == 2.5
        assert s.percentile(100) == 4.0

    def test_empty_and_invalid(self):
        s = LatencyStats()
        assert s.summary() == {"count": 0}
        # Empty collectors report 0.0 instead of raising, so report
        # generation survives runs with zero completions.
        assert s.percentile(50) == 0.0
        assert s.percentile(95) == 0.0
        with pytest.raises(ConfigError):
            s.add(-1.0)
        s.add(1.0)
        with pytest.raises(ConfigError):
            s.percentile(101)


def test_cli_serve_smoke(capsys):
    from repro.cli import main

    rc = main([
        "serve", "--config", "tiny", "--ep", "1", "--requests", "2",
        "--batch", "2", "--max-new", "3", "--prompt-len", "4",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "throughput" in out and "completed / evicted: 2 / 0" in out
