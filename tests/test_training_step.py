"""The one training step: its update block, its guards, and what it reports.

``apply_update`` is checked without threads; the clip guard and the replica
invariant at world <= 4; the ``extras`` / ``phase_seconds`` keys for every
strategy in ``tests/test_strategies.py::CASES``.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.amp import DynamicLossScaler
from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.layout import ParallelLayout
from repro.models import Parameter, tiny_config
from repro.parallel import (
    MoDaTrainer,
    TrainingRunConfig,
    build_groups,
    build_moda_model,
    run_distributed_training,
    split_params,
)
from repro.simmpi import run_spmd
from repro.train import Adam, Trainer
from repro.train.trainer import apply_update

from .test_strategies import CASES, TINY4


# --------------------------------------------------------------------- #
# apply_update: skip, or clip + step (no threads)
# --------------------------------------------------------------------- #

def _optimizer(grads, lr=0.1):
    params = [Parameter(np.ones_like(g), dtype="fp32") for g in grads]
    for p, g in zip(params, grads):
        p.grad = g.copy()
    return Adam(params, lr=lr)


GRADS = [np.array([3.0, 0.0], dtype=np.float32), np.array([[4.0]], dtype=np.float32)]


class TestApplyUpdate:
    def test_overflow_skips_and_backs_the_scaler_off(self):
        opt = _optimizer(GRADS)
        before = [p.data.copy() for p in opt.params]
        scaler = DynamicLossScaler(init_scale=1024.0)
        grad_norm, skipped = apply_update(opt, scaler, None, scaler.scale, True)
        assert skipped and grad_norm == math.inf
        assert scaler.scale == 512.0 and scaler.overflow_count == 1
        assert opt.step_count == 0 and opt.state_dict().keys() == {"step_count"}
        for p, b in zip(opt.params, before):
            assert p.data.tobytes() == b.tobytes()

    def test_good_step_unscales_steps_and_counts(self):
        scale = 8.0
        opt = _optimizer([g * scale for g in GRADS])
        ref = _optimizer(GRADS)
        ref.step()
        scaler = DynamicLossScaler(init_scale=scale, growth_interval=1)
        grad_norm, skipped = apply_update(opt, scaler, None, scale, False)
        assert not skipped and grad_norm == 5.0
        assert scaler.scale == 2 * scale  # one good step at growth_interval=1
        for p, q in zip(opt.params, ref.params):
            assert p.data.tobytes() == q.data.tobytes()

    def test_clip_reports_the_pre_clip_norm_and_shrinks_gradients(self):
        opt = _optimizer(GRADS)
        grad_norm, skipped = apply_update(opt, None, 1.0, 1.0, False)
        assert not skipped and grad_norm == 5.0
        clipped = math.sqrt(sum(float((p.grad ** 2).sum()) for p in opt.params))
        assert clipped == pytest.approx(1.0, rel=1e-6)
        assert opt.step_count == 1

    def test_without_a_scaler_an_overflow_verdict_is_not_a_skip(self):
        """No scaler, no skip protocol: the flag is ignored (the distributed
        step only raises it under a scaler) and the optimizer steps."""
        opt = _optimizer(GRADS)
        grad_norm, skipped = apply_update(opt, None, None, 1.0, True)
        assert not skipped and grad_norm == 5.0 and opt.step_count == 1


# --------------------------------------------------------------------- #
# grad_clip is a rank-local norm: only where every parameter is replicated
# --------------------------------------------------------------------- #

CFG = tiny_config(num_experts=4)


def _sha(params) -> str:
    digest = hashlib.sha256()
    for p in params:
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def _clipped_moda(comm, ep_size, grad_clip, steps=3):
    groups = build_groups(comm, ParallelLayout(comm.size, ep_size))
    model = build_moda_model(CFG, groups, seed=11)
    trainer = MoDaTrainer(model, Adam(model.parameters(), lr=3e-3), groups, grad_clip=grad_clip)
    corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.9, seed=2)
    loader = ShardedLoader(corpus, 4, 8, dp_rank=comm.rank, dp_size=comm.size)
    norms = [trainer.train_step(loader.get_batch(s)).grad_norm for s in range(steps)]
    return norms, _sha(split_params(model)[0]), _sha(model.parameters())


class TestGradClipGuard:
    def test_rejected_with_expert_shards(self):
        with pytest.raises(ConfigError, match="grad_clip.*expert"):
            run_spmd(_clipped_moda, 4, args=(2, 0.05), timeout=300)

    def test_rejected_with_tensor_parallel_shards(self):
        def program(comm):
            groups = build_groups(comm, ParallelLayout(world_size=4, tp_size=2))
            model = build_moda_model(TINY4, groups, seed=0)
            MoDaTrainer(model, Adam(model.parameters()), groups, grad_clip=1.0)

        with pytest.raises(ConfigError, match="grad_clip.*tp"):
            run_spmd(program, 4, timeout=300)

    def test_non_positive_clip_rejected(self):
        with pytest.raises(ConfigError, match="grad_clip must be > 0"):
            run_spmd(_clipped_moda, 1, args=(1, 0.0), timeout=300)

    def test_pure_dp_clipping_keeps_replicas_equal(self):
        ranks = run_spmd(_clipped_moda, 4, args=(1, 0.05), timeout=300).returns
        assert all(norm > 0.05 for norm in ranks[0][0]), "the clip never fired"
        assert len({r[2] for r in ranks}) == 1
        unclipped = run_spmd(_clipped_moda, 4, args=(1, None), timeout=300).returns
        assert unclipped[0][2] != ranks[0][2]

    def test_world_1_clipping_is_the_single_process_trainers(self):
        """One rank, no communication: the distributed step and
        ``train.Trainer`` reach the same ``apply_update`` with the same bits."""
        _, _, distributed = run_spmd(_clipped_moda, 1, args=(1, 0.05), timeout=300).returns[0]

        def reference(comm):
            model = build_moda_model(CFG, build_groups(comm, ParallelLayout(comm.size)), seed=11)
            trainer = Trainer(model, Adam(model.parameters(), lr=3e-3), grad_clip=0.05)
            corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.9, seed=2)
            loader = ShardedLoader(corpus, 4, 8)
            for s in range(3):
                trainer.train_step(loader.get_batch(s))
            return _sha(model.parameters())

        assert run_spmd(reference, 1, timeout=300).returns[0] == distributed


# --------------------------------------------------------------------- #
# What a step reports: the same keys from every strategy
# --------------------------------------------------------------------- #

def _keys_program(comm, cfg, machine=None):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    return sorted(trainer.train_step(0).extras)


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_reports_exactly_the_phases_of_its_producer(name):
    cfg = TrainingRunConfig(world_size=4, num_steps=1, **CASES[name])
    phases = ["pipeline", "grad_sync"] if cfg.layout.pp_size > 1 else [
        "forward", "backward", "grad_sync"
    ]
    extras = [f"t_{phase}" for phase in phases]
    if cfg.layout.tp_size > 1:
        extras.append("tp_sync_bytes")
    for keys in run_spmd(_keys_program, 4, args=(cfg,), timeout=300).returns:
        assert keys == sorted(extras)
    assert list(run_distributed_training(cfg).phase_seconds) == sorted(phases)
