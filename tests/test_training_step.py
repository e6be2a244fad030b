"""The one training step: its update block and what it reports.

``apply_update`` is checked without threads; the world-1 distributed step
against the single-process trainer; the ``extras`` / ``phase_seconds`` keys
for every strategy in ``tests/test_strategies.py::CASES``.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.amp import DynamicLossScaler
from repro.data import ShardedLoader, SyntheticCorpus
from repro.layout import ParallelLayout
from repro.models import Module, Parameter, tiny_config
from repro.parallel import (
    MoDaTrainer,
    TrainingRunConfig,
    build_groups,
    build_moda_model,
    run_distributed_training,
)
from repro.simmpi import run_spmd
from repro.tensor import Tensor
from repro.train import Adam, Trainer
from repro.train.trainer import apply_update

from .test_strategies import CASES


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
        assert apply_update(opt, scaler, scaler.scale, True)
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
        assert not apply_update(opt, scaler, scale, False)
        assert scaler.scale == 2 * scale  # one good step at growth_interval=1
        for p, q in zip(opt.params, ref.params):
            assert p.data.tobytes() == q.data.tobytes()

    def test_without_a_scaler_an_overflow_verdict_is_not_a_skip(self):
        """No scaler, no skip protocol: the flag is ignored (the distributed
        step only raises it under a scaler) and the optimizer steps."""
        opt = _optimizer(GRADS)
        assert not apply_update(opt, None, 1.0, True) and opt.step_count == 1


# --------------------------------------------------------------------- #
# The gradient norm: measured by the single-process Trainer alone
# --------------------------------------------------------------------- #

class _FixedGrad(Module):
    """``loss = sum(w * c)`` at ``w = 1``: the gradient is ``grads``."""

    def __init__(self, grads):
        super().__init__()
        self.grads = grads
        self.a = Parameter(np.ones_like(grads[0]), dtype="fp32")
        self.b = Parameter(np.ones_like(grads[1]), dtype="fp32")

    def loss(self, tokens, targets):
        a, b = (Tensor(g) for g in self.grads)
        return (self.a * a).sum() + (self.b * b).sum()


def _trainer_step(scale=None, grad_clip=None, grads=GRADS):
    model = _FixedGrad(grads)
    scaler = None if scale is None else DynamicLossScaler(init_scale=scale)
    trainer = Trainer(model, Adam(model.parameters(), lr=0.1), scaler=scaler,
                      grad_clip=grad_clip)
    return model, trainer.train_step(SimpleNamespace(tokens=None, targets=None))


class TestTrainerGradNorm:
    def test_reports_the_unscaled_norm(self):
        _, result = _trainer_step(scale=8.0)
        assert not result.skipped and result.grad_norm == 5.0

    def test_clip_reports_the_pre_clip_norm_and_shrinks_gradients(self):
        model, result = _trainer_step(grad_clip=1.0)
        assert not result.skipped and result.grad_norm == 5.0
        clipped = math.sqrt(sum(float((p.grad ** 2).sum()) for p in model.parameters()))
        assert clipped == pytest.approx(1.0, rel=1e-6)

    def test_a_skipped_step_reports_inf(self):
        huge = [g * np.float32(2e37) for g in GRADS]
        with np.errstate(over="ignore"):  # scaled by 16, they overflow fp32
            _, result = _trainer_step(scale=16.0, grads=huge)
        assert result.skipped and result.grad_norm == math.inf


# --------------------------------------------------------------------- #
# grad_clip is a rank-local norm: only where every parameter is replicated
# --------------------------------------------------------------------- #

CFG = tiny_config(num_experts=4)


def _sha(params) -> str:
    digest = hashlib.sha256()
    for p in params:
        digest.update(p.data.tobytes())
    return digest.hexdigest()


def _moda(comm, steps=3):
    groups = build_groups(comm, ParallelLayout(comm.size))
    model = build_moda_model(CFG, groups, seed=11)
    trainer = MoDaTrainer(model, Adam(model.parameters(), lr=3e-3), groups)
    corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.9, seed=2)
    loader = ShardedLoader(corpus, 4, 8, dp_rank=comm.rank, dp_size=comm.size)
    results = [trainer.train_step(loader.get_batch(s)) for s in range(steps)]
    return _sha(model.parameters()), [r.grad_norm for r in results]


def test_world_1_step_is_the_single_process_trainers():
    """One rank, no communication: the distributed step and
    ``train.Trainer`` reach the same ``apply_update`` with the same bits."""
    distributed, norms = run_spmd(_moda, 1, timeout=300).returns[0]
    assert norms == [None, None, None]  # only the single-process Trainer measures it

    def reference(comm):
        model = build_moda_model(CFG, build_groups(comm, ParallelLayout(comm.size)), seed=11)
        trainer = Trainer(model, Adam(model.parameters(), lr=3e-3))
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
