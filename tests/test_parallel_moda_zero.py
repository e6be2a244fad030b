"""MoDa trainer invariants and ZeRO-1 optimizer-state sharding."""

import numpy as np
import pytest

from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.models import build_model, tiny_config
from repro.parallel import (
    MoDaTrainer,
    ParallelLayout,
    ZeroAdamW,
    build_groups,
    build_moda_model,
    shard_bounds,
    split_params,
)
from repro.simmpi import run_spmd
from repro.train import Adam, AdamW
from repro.train.optim import Optimizer


CFG = tiny_config(num_experts=4)


def _train(comm, ep_size, steps=4, optimizer="adam", seed=11, lr=3e-3, **trainer_kw):
    groups = build_groups(comm, ParallelLayout(comm.size, ep_size))
    model = build_moda_model(CFG, groups, seed=seed)
    if optimizer == "adam":
        opt = Adam(model.parameters(), lr=lr)
    else:
        opt = ZeroAdamW(model.parameters(), groups.edp, lr=lr)
    corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.9, seed=2)
    loader = ShardedLoader(corpus, 4, 8, dp_rank=comm.rank, dp_size=comm.size)
    trainer = MoDaTrainer(model, opt, groups, **trainer_kw)
    losses = [trainer.train_step(loader.get_batch(s)).global_loss for s in range(steps)]
    dense, expert = split_params(model)
    return {
        "losses": losses,
        "dense_fingerprint": float(sum(np.abs(p.data).sum() for p in dense)),
        "expert_fingerprint": float(sum(np.abs(p.data).sum() for p in expert)),
        "history": [(r.dense_sync_bytes, r.expert_sync_bytes) for r in trainer.history],
    }


class TestMoDaTrainer:
    def test_global_loss_identical_across_ranks(self):
        res = run_spmd(_train, 4, args=(2,), timeout=300)
        base = res.returns[0]["losses"]
        for r in res.returns[1:]:
            assert np.allclose(r["losses"], base)

    def test_loss_decreases(self):
        res = run_spmd(_train, 4, args=(2, 8), timeout=300)
        losses = res.returns[0]["losses"]
        assert losses[-1] < losses[0]

    def test_dense_replicas_stay_in_sync(self):
        res = run_spmd(_train, 4, args=(2,), timeout=300)
        fps = [r["dense_fingerprint"] for r in res.returns]
        assert all(abs(f - fps[0]) < 1e-4 for f in fps)

    def test_edp_replicas_stay_in_sync(self):
        """Ranks with the same EP position hold identical expert shards."""
        res = run_spmd(_train, 4, args=(2,), timeout=300)
        # world 4, ep 2: EDP pairs are (0, 2) and (1, 3).
        fps = [r["expert_fingerprint"] for r in res.returns]
        assert abs(fps[0] - fps[2]) < 1e-4
        assert abs(fps[1] - fps[3]) < 1e-4

    def test_sync_bytes_reported(self):
        res = run_spmd(_train, 4, args=(2,), timeout=300)
        dense_bytes, expert_bytes = res.returns[0]["history"][0]
        assert dense_bytes > 0
        assert expert_bytes > 0

    def test_strategy_equivalence(self):
        """Pure DP (ep=1), hybrid (ep=2), and full EP (ep=4) must produce the
        same loss trajectory — parallel layout changes placement only."""
        r1 = run_spmd(_train, 4, args=(1,), timeout=300).returns[0]["losses"]
        r2 = run_spmd(_train, 4, args=(2,), timeout=300).returns[0]["losses"]
        r4 = run_spmd(_train, 4, args=(4,), timeout=300).returns[0]["losses"]
        assert np.allclose(r1, r2, atol=1e-4)
        assert np.allclose(r1, r4, atol=1e-4)

    def test_matches_single_process_trainer(self):
        """MoDa on 1 rank with ep=1 must equal the plain Trainer."""
        from repro.train import ConstantLR, Trainer

        res = run_spmd(_train, 1, args=(1, 4), timeout=300).returns[0]

        model = build_moda_model_single()
        corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.9, seed=2)
        loader = ShardedLoader(corpus, 4, 8)
        opt = Adam(model.parameters(), lr=3e-3)
        trainer = Trainer(model, opt, schedule=ConstantLR(3e-3))
        solo = [trainer.train_step(loader.get_batch(s)).loss for s in range(4)]
        assert np.allclose(res["losses"], solo, atol=1e-5)


def build_moda_model_single():
    """A MoDa-constructed model usable outside the SPMD engine.

    With ep_size=1 every collective is a self-exchange on a 1-rank comm,
    which completes without blocking, so the model remains usable after
    run_spmd returns.
    """

    def build(comm):
        groups = build_groups(comm, ParallelLayout(comm.size))
        return build_moda_model(CFG, groups, seed=11)

    return run_spmd(build, 1).returns[0]


class TestGradSyncOptions:
    """Two overlap values on the step (buckets, hook); buckets > 1 overlaps."""

    def test_bucket_count_moves_op_names_not_gradients(self):
        one = run_spmd(_train, 4, args=(2,), kwargs={"steps": 2})
        three = run_spmd(_train, 4, args=(2,), kwargs={"steps": 2, "grad_sync_buckets": 3})
        assert three.returns == one.returns
        calls_one, calls_three = (r.context.stats.collective_calls for r in (one, three))
        assert "iallreduce" not in calls_one
        # world + 2 EDP groups sync per step, each in 3 nonblocking buckets
        assert calls_three["iallreduce"] == 2 * 3 * 3
        assert calls_one["allreduce"] - calls_three["allreduce"] == 2 * 3

    def test_buckets_validated_in_the_constructor_and_flag_is_gone(self):
        def program(comm):
            with pytest.raises(ConfigError, match="grad_sync_buckets"):
                _train(comm, 1, steps=0, grad_sync_buckets=0)
            with pytest.raises(TypeError, match="overlap_grad_sync"):
                _train(comm, 1, steps=0, overlap_grad_sync=True)
            return hasattr(MoDaTrainer, "overlap_grad_sync")

        assert run_spmd(program, 1).returns == [False]


class TestShardBounds:
    def test_even_partition(self):
        assert shard_bounds(12, 4, 0) == (0, 3)
        assert shard_bounds(12, 4, 3) == (9, 12)

    def test_uneven_partition_covers_all(self):
        total = 13
        spans = [shard_bounds(total, 4, r) for r in range(4)]
        assert spans[0][0] == 0
        assert spans[-1][1] == total
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c
        sizes = [b - a for a, b in spans]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid(self):
        with pytest.raises(ConfigError):
            shard_bounds(10, 0, 0)
        with pytest.raises(ConfigError):
            shard_bounds(10, 2, 2)


class TestZeroAdamW:
    def test_matches_unsharded_adamw(self):
        """ZeRO-1 sharding must be a pure memory optimization: parameter
        trajectories match plain AdamW bit-for-bit (up to fp roundoff)."""

        def zero_program(comm):
            rng = np.random.default_rng(0)
            from repro.models import Linear

            lin = Linear(6, 6, rng)
            opt = ZeroAdamW(lin.parameters(), comm, lr=0.01, weight_decay=0.01)
            grng = np.random.default_rng(1)
            for _ in range(5):
                for p in lin.parameters():
                    p.grad = grng.normal(size=p.shape).astype(np.float32)
                opt.step()
            return lin.weight.data.copy()

        sharded = run_spmd(zero_program, 4).returns

        rng = np.random.default_rng(0)
        from repro.models import Linear

        lin = Linear(6, 6, rng)
        opt = AdamW(lin.parameters(), lr=0.01, weight_decay=0.01)
        grng = np.random.default_rng(1)
        for _ in range(5):
            for p in lin.parameters():
                p.grad = grng.normal(size=p.shape).astype(np.float32)
            opt.step()

        for w in sharded:
            assert np.allclose(w, lin.weight.data, atol=1e-5)

    def test_state_memory_shrinks_with_ranks(self):
        def program(comm):
            from repro.models import Linear

            lin = Linear(8, 8, np.random.default_rng(0))
            opt = ZeroAdamW(lin.parameters(), comm, lr=0.01)
            return opt.optimizer_state_bytes()

        solo = run_spmd(program, 1).returns[0]
        quad = run_spmd(program, 4).returns
        assert sum(quad) == solo  # total state conserved
        assert max(quad) <= solo // 4 + 12  # per-rank ~ 1/4

    def test_in_moda_trainer(self):
        res = run_spmd(_train, 4, args=(2, 4, "zero"), timeout=300)
        base = res.returns[0]["losses"]
        assert base[-1] < base[0]
        for r in res.returns[1:]:
            assert np.allclose(r["losses"], base)

    def test_zero_matches_adam_free_trainer(self):
        """ZeRO trajectory == replicated-AdamW trajectory (wd=0 ~ Adam)."""
        plain = run_spmd(_train, 4, args=(2, 3, "adam"), timeout=300).returns[0]["losses"]
        zero = run_spmd(_train, 4, args=(2, 3, "zero"), timeout=300).returns[0]["losses"]
        assert np.allclose(plain, zero, atol=1e-3)

    def test_requires_params(self):
        def program(comm):
            ZeroAdamW([], comm, lr=0.1)

        with pytest.raises(ConfigError):
            run_spmd(program, 2)
