"""Mixed precision: loss scaler state machine, overflow detection, casting."""

import numpy as np
import pytest

from repro.amp import DynamicLossScaler, cast_model, grads_have_overflow
from repro.errors import ConfigError
from repro.models import Linear, Parameter, build_model, tiny_config


class TestOverflowDetection:
    def test_clean_grads(self):
        p = Parameter(np.zeros(3))
        p.grad = np.ones(3, dtype=np.float32)
        assert not grads_have_overflow([p])

    def test_inf_detected(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([1.0, np.inf, 0.0], dtype=np.float32)
        assert grads_have_overflow([p])

    def test_nan_detected(self):
        p = Parameter(np.zeros(1))
        p.grad = np.array([np.nan], dtype=np.float32)
        assert grads_have_overflow([p])

    def test_none_grads_skipped(self):
        assert not grads_have_overflow([Parameter(np.zeros(2))])


class TestScalerStateMachine:
    def test_backoff_on_overflow(self):
        s = DynamicLossScaler(init_scale=1024.0)
        s.update(found_overflow=True)
        assert s.scale == 512.0
        assert s.overflow_count == 1

    def test_growth_after_interval(self):
        s = DynamicLossScaler(init_scale=1024.0, growth_interval=3)
        for _ in range(3):
            s.update(found_overflow=False)
        assert s.scale == 2048.0

    def test_overflow_resets_growth_counter(self):
        s = DynamicLossScaler(init_scale=1024.0, growth_interval=3)
        s.update(False)
        s.update(False)
        s.update(True)  # back to 512, counter reset
        s.update(False)
        s.update(False)
        assert s.scale == 512.0  # not grown yet

    def test_min_scale_floor(self):
        s = DynamicLossScaler(init_scale=2.0)
        for _ in range(10):
            s.update(True)
        assert s.scale == DynamicLossScaler.MIN_SCALE == 1.0

    def test_max_scale_ceiling(self):
        s = DynamicLossScaler(init_scale=2.0**23, growth_interval=1)
        for _ in range(10):
            s.update(False)
        assert s.scale == DynamicLossScaler.MAX_SCALE == 2.0**24

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            DynamicLossScaler(init_scale=-1.0)
        with pytest.raises(ConfigError):
            DynamicLossScaler(init_scale=0.5)
        with pytest.raises(ConfigError):
            DynamicLossScaler(init_scale=2.0**25)
        with pytest.raises(ConfigError):
            DynamicLossScaler(growth_interval=0)


def _dtypes(model) -> set[str]:
    return {p.dtype.name for p in model.parameters()}


class TestCasting:
    def test_cast_model_dtype(self):
        model = build_model(tiny_config())
        assert _dtypes(model) == {"fp32"}
        cast_model(model, "fp16")
        assert _dtypes(model) == {"fp16"}

    def test_cast_quantizes_values(self):
        rng = np.random.default_rng(0)
        lin = Linear(4, 4, rng)
        lin.weight.data[0, 0] = 1.0 + 2**-12  # not representable in fp16
        cast_model(lin, "fp16")
        assert lin.weight.data[0, 0] in (1.0, 1.0 + 2**-11)

    def test_cast_clears_grads(self):
        lin = Linear(2, 2, np.random.default_rng(0))
        lin.weight.grad = np.ones((2, 2), dtype=np.float32)
        cast_model(lin, "bf16")
        assert lin.weight.grad is None

    def test_cast_back_to_fp32(self):
        model = build_model(tiny_config())
        cast_model(model, "fp16")
        cast_model(model, "fp32")
        assert _dtypes(model) == {"fp32"}

    def test_forward_works_after_cast(self):
        cfg = tiny_config()
        model = cast_model(build_model(cfg), "fp16")
        tokens = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 4))
        loss = model.loss(tokens, tokens)
        assert np.isfinite(loss.item())
