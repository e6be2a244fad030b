"""Single-process trainer: convergence and the fp16 protocol."""

import numpy as np
import pytest

from repro.amp import DynamicLossScaler, cast_model
from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.models import build_model, tiny_config
from repro.train import (
    Adam,
    ConstantLR,
    Trainer,
    WarmupCosineLR,
)


def make_setup(seed=1, dtype=None, scaler=None, lr=3e-3):
    cfg = tiny_config()
    model = build_model(cfg, seed=seed)
    if dtype:
        cast_model(model, dtype)
    corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, predictability=0.9, seed=3)
    loader = ShardedLoader(corpus, batch_size=8, seq_len=16)
    opt = Adam(model.parameters(), lr=lr)
    trainer = Trainer(model, opt, schedule=ConstantLR(lr), scaler=scaler, grad_clip=1.0)
    return cfg, model, loader, opt, trainer


class TestTrainer:
    def test_loss_decreases_fp32(self):
        _, _, loader, _, trainer = make_setup()
        hist = trainer.fit(loader, 40)
        assert hist[-1].loss < hist[0].loss * 0.8

    def test_loss_decreases_fp16(self):
        scaler = DynamicLossScaler(init_scale=2.0**10, growth_interval=20)
        _, _, loader, _, trainer = make_setup(dtype="fp16", scaler=scaler)
        hist = trainer.fit(loader, 40)
        assert hist[-1].loss < hist[0].loss * 0.85

    def test_fp16_tracks_fp32_closely(self):
        """F6 shape: mixed-precision loss curve overlaps fp32."""
        _, _, loader32, _, tr32 = make_setup()
        scaler = DynamicLossScaler(init_scale=2.0**10)
        _, _, loader16, _, tr16 = make_setup(dtype="fp16", scaler=scaler)
        h32 = tr32.fit(loader32, 30)
        h16 = tr16.fit(loader16, 30)
        diffs = [abs(a.loss - b.loss) for a, b in zip(h32, h16)]
        assert max(diffs) < 0.15

    def test_step_metrics_populated(self):
        _, _, loader, _, trainer = make_setup()
        res = trainer.train_step(loader.get_batch(0))
        assert res.step == 0
        assert np.isfinite(res.loss)
        assert res.lr == pytest.approx(3e-3)
        assert np.isfinite(res.grad_norm)
        assert not res.skipped

    def test_schedule_applied(self):
        cfg = tiny_config()
        model = build_model(cfg)
        loader = ShardedLoader(SyntheticCorpus(vocab_size=cfg.vocab_size), 2, 8)
        opt = Adam(model.parameters(), lr=1.0)
        trainer = Trainer(model, opt, schedule=WarmupCosineLR(0.1, 5, 20))
        res = trainer.train_step(loader.get_batch(0))
        assert res.lr == pytest.approx(0.1 / 5)

    def test_overflow_skips_step(self):
        """A huge loss scale forces overflow; the step must be skipped."""
        scaler = DynamicLossScaler(init_scale=2.0**24)
        cfg, model, loader, opt, trainer = make_setup(dtype="fp16", scaler=scaler)
        before = model.tok_emb.weight.data.copy()
        res = trainer.train_step(loader.get_batch(0))
        if res.skipped:  # scale 2^24 on fp16 grads overflows
            assert np.array_equal(model.tok_emb.weight.data, before)
            assert scaler.scale < 2.0**24
        else:  # extremely unlikely, but then training proceeded normally
            assert np.isfinite(res.grad_norm)

    def test_history_accumulates(self):
        _, _, loader, _, trainer = make_setup()
        trainer.fit(loader, 3)
        assert len(trainer.history) == 3
        assert [r.step for r in trainer.history] == [0, 1, 2]

    def test_on_step_callback(self):
        _, _, loader, _, trainer = make_setup()
        seen = []
        trainer.fit(loader, 2, on_step=lambda r: seen.append(r.step))
        assert seen == [0, 1]

    def test_invalid_steps(self):
        _, _, loader, _, trainer = make_setup()
        with pytest.raises(ConfigError):
            trainer.fit(loader, 0)

