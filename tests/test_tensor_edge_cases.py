"""Edge cases of the tensor engine: empty tensors, odd shapes, dtypes."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, softmax, gather_rows, scatter_rows


class TestEmptyTensors:
    def test_empty_matmul(self):
        a = Tensor(np.zeros((0, 4)), dtype="fp64")
        b = Tensor(np.zeros((4, 3)), dtype="fp64")
        out = a @ b
        assert out.shape == (0, 3)

    def test_empty_matmul_backward(self):
        a = Tensor(np.zeros((0, 4)), requires_grad=True, dtype="fp64")
        b = Tensor(np.ones((4, 3)), requires_grad=True, dtype="fp64")
        (a @ b).sum().backward()
        assert a.grad.shape == (0, 4)
        assert np.allclose(b.grad, 0.0)

    def test_empty_gather(self):
        x = Tensor(np.ones((5, 2)), dtype="fp64")
        out = gather_rows(x, np.zeros(0, dtype=np.int64))
        assert out.shape == (0, 2)

    def test_empty_scatter(self):
        src = Tensor(np.zeros((0, 2)), dtype="fp64")
        out = scatter_rows(src, np.zeros(0, dtype=np.int64), 4)
        assert out.shape == (4, 2)
        assert np.allclose(out.data, 0.0)

    def test_empty_softmax(self):
        out = softmax(Tensor(np.zeros((0, 5)), dtype="fp64"))
        assert out.shape == (0, 5)

    def test_empty_sum(self):
        x = Tensor(np.zeros((0, 3)), requires_grad=True, dtype="fp64")
        s = x.sum()
        assert s.item() == 0.0
        s.backward()
        assert x.grad.shape == (0, 3)


class TestScalars:
    def test_zero_dim_tensor_arithmetic(self):
        a = Tensor(np.float64(3.0), dtype="fp64")
        b = Tensor(np.float64(4.0), dtype="fp64")
        assert (a * b).item() == 12.0

    def test_scalar_broadcast_grad(self):
        s = Tensor(np.float64(2.0), requires_grad=True, dtype="fp64")
        x = Tensor(np.ones((3, 3)), dtype="fp64")
        (x * s).sum().backward()
        assert s.grad == pytest.approx(9.0)

    def test_python_scalar_operands(self):
        x = Tensor([1.0, 2.0], requires_grad=True, dtype="fp64")
        out = 2.0 * x + 1.0 + x / 4.0
        out.sum().backward()
        assert np.allclose(x.grad, 2.25)


class TestBroadcastingCorners:
    def test_leading_ones(self):
        a = Tensor(np.ones((1, 1, 3)), requires_grad=True, dtype="fp64")
        b = Tensor(np.ones((2, 4, 3)), dtype="fp64")
        (a + b).sum().backward()
        assert a.grad.shape == (1, 1, 3)
        assert np.allclose(a.grad, 8.0)

    def test_mutual_broadcast(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True, dtype="fp64")
        b = Tensor(np.ones((1, 4)), requires_grad=True, dtype="fp64")
        (a * b).sum().backward()
        assert np.allclose(a.grad, 4.0)
        assert np.allclose(b.grad, 3.0)


class TestDtypeMixing:
    def test_fp16_plus_fp64_promotes(self):
        a = Tensor([1.0], dtype="fp16")
        b = Tensor([1.0], dtype="fp64")
        out = a + b
        assert out.dtype.name == "fp64"
        assert out.data.dtype == np.float64

    def test_grad_quantized_to_leaf_dtype(self):
        a = Tensor([1.0], requires_grad=True, dtype="fp16")
        b = Tensor([1.0 + 2**-20], dtype="fp64")
        (a * b).backward()
        # The fp64 product's gradient lands on the fp16 grid.
        assert a.grad[0] in (1.0, np.float32(1.0 + 2**-11))

    def test_fp16_grad_overflow_representable(self):
        a = Tensor([1.0], requires_grad=True, dtype="fp16")
        (a * 1e6).backward()  # grad 1e6 overflows fp16
        assert np.isinf(a.grad[0])

    def test_bf16_grad_does_not_overflow(self):
        a = Tensor([1.0], requires_grad=True, dtype="bf16")
        (a * 1e6).backward()
        assert np.isfinite(a.grad[0])


class TestErrorPaths:
    def test_unbroadcastable_grad(self):
        from repro.tensor import unbroadcast

        with pytest.raises(ShapeError):
            unbroadcast(np.ones((2, 3)), (5,))

    def test_reshape_size_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))).reshape(7)

    def test_negative_advance_clock_like_guards(self):
        # ops on mismatched shapes raise NumPy errors, not silent wrongness
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            _ = a + b
