"""Adam, LR schedules, gradient clipping."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import Parameter
from repro.train import Adam, ConstantLR, WarmupCosineLR, clip_grad_norm, global_grad_norm
from repro.tensor import Tensor


def quad_param(value=5.0, dtype="fp32"):
    """A parameter minimizing f(w) = w^2 (grad = 2w)."""
    return Parameter(np.array([value]), dtype=dtype)


def set_grad(p, g):
    p.grad = np.asarray(g, dtype=p.data.dtype)


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, |first update| ~ lr regardless of grad scale."""
        p = quad_param(0.0)
        opt = Adam([p], lr=0.01)
        set_grad(p, [1000.0])
        opt.step()
        assert abs(p.data[0]) == pytest.approx(0.01, rel=0.01)

    def test_converges_on_quadratic(self):
        p = quad_param(5.0, dtype="fp64")
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            set_grad(p, 2 * p.data)
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_skips_params_without_grad(self):
        p = quad_param(3.0)
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data[0] == pytest.approx(3.0)

    def test_grad_scale(self):
        scaled, plain = quad_param(1.0), quad_param(1.0)
        opt_scaled, opt_plain = Adam([scaled], lr=0.1), Adam([plain], lr=0.1)
        set_grad(scaled, [20.0])
        opt_scaled.step(grad_scale=0.1)  # effective grad 2.0
        set_grad(plain, [2.0])
        opt_plain.step()
        assert scaled.data[0] == pytest.approx(plain.data[0])

    def test_invalid(self):
        with pytest.raises(ConfigError):
            Adam([], lr=0.1)
        with pytest.raises(ConfigError):
            Adam([quad_param()], lr=-1.0)

    def test_state_dict_roundtrip(self):
        p = quad_param(2.0)
        opt = Adam([p], lr=0.1)
        set_grad(p, [1.0])
        opt.step()
        opt2 = Adam([quad_param(2.0)], lr=0.1)
        opt2.load_state_dict(opt.state_dict())
        assert opt2.step_count == 1
        saved, loaded = opt.state_dict(), opt2.state_dict()
        assert np.allclose(loaded["m.0"], saved["m.0"])
        assert np.allclose(loaded["v.0"], saved["v.0"])


class TestMasterWeights:
    def test_fp16_param_gets_master(self):
        p = quad_param(1.0, dtype="fp16")
        opt = Adam([p], lr=1e-4)
        assert "master.0" in opt.state_dict()

    def test_fp32_param_no_master(self):
        p = quad_param(1.0, dtype="fp32")
        opt = Adam([p], lr=1e-4)
        assert "master.0" not in opt.state_dict()

    def test_tiny_updates_accumulate_in_master(self):
        """fp16 weights stall on tiny updates; masters must not."""
        p = quad_param(1.0, dtype="fp16")
        opt = Adam([p], lr=1e-7)
        for _ in range(1000):
            set_grad(p, [1.0])
            opt.step()
        # A constant gradient makes every Adam update ~lr: 1000 updates of
        # 1e-7 = 1e-4 total, invisible per-step in fp16 around 1.0 (grid
        # ~ 5e-4) but preserved by the fp32 master.
        assert opt.state_dict()["master.0"][0] == pytest.approx(1.0 - 1e-4, rel=1e-3)

    def test_param_stays_quantized(self):
        p = quad_param(1.0, dtype="fp16")
        opt = Adam([p], lr=0.1)
        set_grad(p, [0.3])
        opt.step()
        from repro.tensor import quantize

        assert np.array_equal(p.data, quantize(p.data, "fp16"))


class TestSchedules:
    def test_constant(self):
        s = ConstantLR(0.5)
        assert s(0) == s(1000) == 0.5

    def test_warmup_ramps_linearly(self):
        s = WarmupCosineLR(peak_lr=1.0, warmup_steps=10, total_steps=100)
        assert s(0) == pytest.approx(0.1)
        assert s(4) == pytest.approx(0.5)
        assert s(9) == pytest.approx(1.0)

    def test_cosine_decays_to_min(self):
        s = WarmupCosineLR(peak_lr=1.0, warmup_steps=0, total_steps=100)
        assert s(0) <= 1.0
        assert s(99) == pytest.approx(0.0, abs=0.01)
        assert s(1000) == 0.0

    def test_cosine_midpoint(self):
        s = WarmupCosineLR(peak_lr=1.0, warmup_steps=0, total_steps=100)
        assert s(50) == pytest.approx(0.5, abs=0.02)

    def test_monotone_after_warmup(self):
        s = WarmupCosineLR(peak_lr=1.0, warmup_steps=5, total_steps=50)
        lrs = [s(i) for i in range(5, 50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_invalid(self):
        with pytest.raises(ConfigError):
            WarmupCosineLR(peak_lr=0.0, warmup_steps=0, total_steps=10)
        with pytest.raises(ConfigError):
            WarmupCosineLR(peak_lr=1.0, warmup_steps=20, total_steps=10)
        with pytest.raises(ConfigError):
            ConstantLR(0.1)(-1)


class TestClipping:
    def test_norm_computation(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        assert global_grad_norm([p]) == pytest.approx(5.0)

    def test_norm_with_scale(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([30.0, 40.0], dtype=np.float32)
        assert global_grad_norm([p], grad_scale=0.1) == pytest.approx(5.0)

    def test_nonfinite_returns_inf(self):
        p = Parameter(np.zeros(1))
        p.grad = np.array([np.inf], dtype=np.float32)
        assert global_grad_norm([p]) == np.inf

    def test_clip_rescales(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_no_clip_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4], dtype=np.float32)
        clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_clip_respects_grad_scale(self):
        """Scaled grads are compared in unscaled units."""
        p = Parameter(np.zeros(2))
        p.grad = np.array([300.0, 400.0], dtype=np.float32)  # scale 100
        clip_grad_norm([p], max_norm=1.0, grad_scale=0.01)
        # After the step's unscale (x0.01) the norm will be 1.0.
        assert np.linalg.norm(p.grad) * 0.01 == pytest.approx(1.0, rel=1e-5)

    def test_invalid_max_norm(self):
        with pytest.raises(ConfigError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)
