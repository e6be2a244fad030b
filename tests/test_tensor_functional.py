"""Fused NN operations: gradcheck + behavioural tests."""

import re
import time
from pathlib import Path

import numpy as np
import pytest

import repro.tensor
from repro.errors import ShapeError
from repro.tensor import (
    Tensor,
    cross_entropy,
    embedding,
    gather_rows,
    gelu,
    gradcheck,
    layer_norm,
    log_softmax,
    relu,
    scatter_rows,
    silu,
    softmax,
)
from repro.tensor.dtype import quantize

RNG = np.random.default_rng(7)


def t64(shape, scale=1.0):
    return Tensor(RNG.normal(size=shape) * scale, requires_grad=True, dtype="fp64")


class TestActivations:
    def test_relu_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_grad(self):
        gradcheck(lambda ins: relu(ins[0]), [t64((6,))], atol=1e-4)

    def test_gelu_grad(self):
        gradcheck(lambda ins: gelu(ins[0]), [t64((6,))], rtol=1e-3)

    def test_gelu_midpoint(self):
        assert gelu(Tensor([0.0])).data[0] == pytest.approx(0.0)

    def test_silu_grad(self):
        gradcheck(lambda ins: silu(ins[0]), [t64((6,))], rtol=1e-3)

    def test_silu_evaluates_the_extremes_without_overflow(self):
        # exp(-|v|) underflowing to 0 is the right answer; anything else raises.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = silu(Tensor([-65504.0, -100.0, 100.0, 65504.0])).data
        assert np.all(np.abs(out[:2]) < 1e-40)
        assert out[2:].tolist() == [100.0, 65504.0]

    def test_silu_bits_are_those_of_the_two_branch_form(self):
        v = (RNG.standard_normal(100_000) * 8).astype(np.float32)
        with np.errstate(over="ignore"):  # the form silu replaced evaluated exp(|v|) too
            s = np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v)))
        assert silu(Tensor(v)).data.tobytes() == (v * s).tobytes()


_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_by_multiplication(v):
    return 0.5 * v * (1.0 + np.tanh(_GELU_C * (v + 0.044715 * (v * v * v))))


def _gelu_by_power(v):
    """The forward until its cube stopped calling ``pow``."""
    return 0.5 * v * (1.0 + np.tanh(_GELU_C * (v + 0.044715 * v**3)))


def _median_seconds(fn, repeats=41):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


class TestGeluCube:
    """``gelu`` cubes by multiplication: NumPy's float32 ``power`` leaves its
    SIMD path for negative bases (~100x slower per element) and rounds
    ``(-x)**3`` differently from ``-(x**3)``."""

    @pytest.mark.parametrize("dtype", ["fp32", "fp16", "bf16"])
    def test_forward_is_the_literal_expression(self, dtype):
        x = Tensor(RNG.standard_normal((64, 128)) * 3, dtype=dtype)
        want = quantize(_gelu_by_multiplication(x.data), dtype)
        assert gelu(x).data.tobytes() == want.tobytes()

    def test_an_element_alone_and_among_other_signs_gives_the_same_bits(self):
        v = (RNG.standard_normal(2048) * 3).astype(np.float32)
        whole = gelu(Tensor(v)).data
        alone = np.concatenate([gelu(Tensor(v[i:i + 1])).data for i in range(v.size)])
        assert whole.tobytes() == alone.tobytes()
        for part in (v > 0, v < 0):
            assert whole[part].tobytes() == gelu(Tensor(v[part])).data.tobytes()

    def test_tanh_argument_is_odd_bit_for_bit(self):
        # gelu(-v) is the forward's expression with v and tanh(...) negated:
        # the cube at -v is exactly minus the cube at v.
        v = np.abs(RNG.standard_normal(100_000) * 3).astype(np.float32)
        t = np.tanh(_GELU_C * (v + 0.044715 * (v * v * v)))
        assert gelu(Tensor(-v)).data.tobytes() == (0.5 * -v * (1.0 + -t)).tobytes()

    @pytest.mark.parametrize("dtype", ["fp32", "fp16", "bf16"])
    def test_no_further_from_float64_than_the_power_form(self, dtype):
        v = quantize((RNG.standard_normal(1_000_000) * 3).astype(np.float32), dtype)
        exact = _gelu_by_multiplication(v.astype(np.float64))
        err = np.abs(quantize(_gelu_by_multiplication(v), dtype) - exact)
        err_power = np.abs(quantize(_gelu_by_power(v), dtype) - exact)
        # Both cubes are within an ulp of v^3, so the errors are statistically
        # the same: the mean ratio measured 1 +- 1e-4 by seed, the maxima equal.
        assert err.max() <= err_power.max() * 1.01
        assert err.mean() <= err_power.mean() * 1.001

    def test_negative_inputs_cost_what_positive_ones_do(self):
        """The scalar ``pow`` fallback made a mixed-sign input ~50x slower."""
        mixed = Tensor(RNG.standard_normal((64, 128)), dtype="fp32")
        positive = Tensor(np.abs(mixed.data), dtype="fp32")
        assert _median_seconds(lambda: gelu(mixed)) <= 5 * _median_seconds(lambda: gelu(positive))

    def test_no_cube_by_power_in_the_tensor_package(self):
        for path in Path(repro.tensor.__file__).parent.glob("*.py"):
            assert not re.search(r"\*\* *3", path.read_text()), path


class TestSoftmax:
    def test_rows_sum_to_one(self):
        s = softmax(Tensor(RNG.normal(size=(4, 7))))
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_stability_large_logits(self):
        s = softmax(Tensor([[1000.0, 1000.0]], dtype="fp64"))
        assert np.allclose(s.data, 0.5)

    def test_grad(self):
        gradcheck(lambda ins: softmax(ins[0]), [t64((3, 5))])

    def test_log_softmax_consistent(self):
        x = Tensor(RNG.normal(size=(2, 6)), dtype="fp64")
        assert np.allclose(np.exp(log_softmax(x).data), softmax(x).data, atol=1e-10)

    def test_log_softmax_grad(self):
        gradcheck(lambda ins: log_softmax(ins[0]), [t64((2, 4))])


class TestCrossEntropy:
    def test_uniform_logits_give_log_v(self):
        logits = Tensor(np.zeros((5, 8)), dtype="fp64")
        targets = np.arange(5) % 8
        assert cross_entropy(logits, targets).item() == pytest.approx(np.log(8))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((3, 4), -100.0)
        logits[np.arange(3), [0, 1, 2]] = 100.0
        loss = cross_entropy(Tensor(logits, dtype="fp64"), np.array([0, 1, 2]))
        assert loss.item() < 1e-6

    def test_grad(self):
        targets = RNG.integers(0, 6, size=4)
        gradcheck(lambda ins: cross_entropy(ins[0], targets), [t64((4, 6))])

    def test_wrong_shapes(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 2, 2))), np.zeros(2, dtype=int))
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 4))), np.zeros(3, dtype=int))


class TestLayerNorm:
    def test_output_normalized(self):
        x = Tensor(RNG.normal(size=(6, 16)) * 3 + 5)
        w = Tensor(np.ones(16))
        b = Tensor(np.zeros(16))
        out = layer_norm(x, w, b).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_grads_all_inputs(self):
        x, w, b = t64((3, 8)), t64((8,)), t64((8,))
        gradcheck(lambda ins: layer_norm(ins[0], ins[1], ins[2]), [x, w, b], rtol=1e-3, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestEmbedding:
    def test_lookup(self):
        w = Tensor(np.arange(12, dtype=np.float64).reshape(4, 3), dtype="fp64")
        out = embedding(w, np.array([2, 0]))
        assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2]])

    def test_grad_scatter_adds_duplicates(self):
        w = t64((4, 2))
        ids = np.array([1, 1, 3])
        out = embedding(w, ids)
        out.backward(np.ones_like(out.data))
        assert np.allclose(w.grad[1], 2.0)
        assert np.allclose(w.grad[3], 1.0)
        assert np.allclose(w.grad[0], 0.0)

    def test_gradcheck(self):
        ids = RNG.integers(0, 5, size=(2, 3))
        gradcheck(lambda ins: embedding(ins[0], ids), [t64((5, 3))])

    def test_out_of_range_ids(self):
        with pytest.raises(ShapeError):
            embedding(Tensor(np.zeros((3, 2))), np.array([5]))

    def test_non_integer_ids(self):
        with pytest.raises(ShapeError):
            embedding(Tensor(np.zeros((3, 2))), np.array([0.5]))


class TestGatherScatterRows:
    def test_gather_rows(self):
        x = Tensor(np.arange(8, dtype=np.float64).reshape(4, 2), dtype="fp64")
        out = gather_rows(x, np.array([3, 0, 3]))
        assert np.allclose(out.data, [[6, 7], [0, 1], [6, 7]])

    def test_gather_grad_accumulates(self):
        x = t64((4, 2))
        idx = np.array([1, 1, 2])
        gradcheck(lambda ins: gather_rows(ins[0], idx), [x])

    def test_scatter_rows(self):
        src = Tensor(np.ones((3, 2)), dtype="fp64")
        out = scatter_rows(src, np.array([0, 0, 2]), num_rows=4)
        assert np.allclose(out.data, [[2, 2], [0, 0], [1, 1], [0, 0]])

    def test_scatter_grad(self):
        src = t64((3, 2))
        idx = np.array([0, 2, 2])
        gradcheck(lambda ins: scatter_rows(ins[0], idx, 4), [src])

    def test_scatter_gather_inverse(self):
        """scatter(gather(x, idx), idx) == x when idx is a permutation."""
        x = t64((5, 3))
        perm = np.random.default_rng(0).permutation(5)
        y = scatter_rows(gather_rows(x, perm), perm, 5)
        assert np.allclose(y.data, x.data)

    def test_scatter_bad_idx_shape(self):
        with pytest.raises(ShapeError):
            scatter_rows(Tensor(np.zeros((3, 2))), np.zeros((2,), dtype=int), 4)
