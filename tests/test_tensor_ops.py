"""Autograd correctness of the primitive ops (gradcheck against numerics)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, gradcheck, no_grad
from repro.tensor import ops as T

RNG = np.random.default_rng(42)


def t64(shape, scale=1.0):
    return Tensor(RNG.normal(size=shape) * scale, requires_grad=True, dtype="fp64")


class TestConstruction:
    def test_tensor_shape_dtype(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.shape == (2, 3)
        assert x.dtype.name == "fp32"
        assert x.data.dtype == np.float32

    def test_item_scalar(self):
        assert Tensor(5.0).item() == 5.0

    def test_item_nonscalar_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).item()

    def test_detach_cuts_graph(self):
        x = t64((2,))
        y = Tensor((x * 2.0).data, requires_grad=True, dtype=x.dtype)
        assert y._node is None
        (y * 3.0).sum().backward()
        assert x.grad is None and y.grad is not None


class TestElementwiseGrads:
    def test_add(self):
        gradcheck(lambda ins: ins[0] + ins[1], [t64((3, 4)), t64((3, 4))])

    def test_add_broadcast(self):
        gradcheck(lambda ins: ins[0] + ins[1], [t64((3, 4)), t64((4,))])

    def test_add_scalar_broadcast(self):
        gradcheck(lambda ins: ins[0] + ins[1], [t64((2, 3)), t64(())])

    def test_mul(self):
        gradcheck(lambda ins: ins[0] * ins[1], [t64((3, 3)), t64((3, 3))])

    def test_mul_broadcast_row(self):
        gradcheck(lambda ins: ins[0] * ins[1], [t64((4, 2)), t64((1, 2))])

    def test_div(self):
        a, b = t64((3,)), t64((3,))
        b.data = np.abs(b.data) + 1.0  # keep away from zero
        gradcheck(lambda ins: ins[0] / ins[1], [a, b])


class TestMatmulGrads:
    def test_2d(self):
        gradcheck(lambda ins: ins[0] @ ins[1], [t64((3, 4)), t64((4, 2))])

    def test_batched(self):
        gradcheck(lambda ins: ins[0] @ ins[1], [t64((2, 3, 4)), t64((2, 4, 2))])

    def test_broadcast_batch(self):
        gradcheck(lambda ins: ins[0] @ ins[1], [t64((2, 3, 4)), t64((4, 5))])

    def test_vec_vec(self):
        gradcheck(lambda ins: ins[0] @ ins[1], [t64((4,)), t64((4,))])

    def test_vec_mat(self):
        gradcheck(lambda ins: ins[0] @ ins[1], [t64((4,)), t64((4, 3))])

    def test_mat_vec(self):
        gradcheck(lambda ins: ins[0] @ ins[1], [t64((3, 4)), t64((4,))])

    def test_matmul_requires_tensors(self):
        with pytest.raises(ShapeError):
            T.matmul(t64((2, 2)), np.zeros((2, 2)))  # type: ignore[arg-type]


class TestShapeGrads:
    def test_reshape(self):
        gradcheck(lambda ins: ins[0].reshape(6), [t64((2, 3))])

    def test_transpose_default(self):
        gradcheck(lambda ins: ins[0].transpose(), [t64((2, 3))])

    def test_transpose_axes(self):
        gradcheck(lambda ins: ins[0].transpose(1, 0, 2), [t64((2, 3, 4))])

    def test_getitem_slice(self):
        gradcheck(lambda ins: ins[0][1:3], [t64((5, 2))])

    def test_getitem_fancy_repeated(self):
        idx = np.array([0, 1, 1, 2])
        gradcheck(lambda ins: ins[0][idx], [t64((3, 2))])


class TestReductionGrads:
    def test_sum_all(self):
        gradcheck(lambda ins: ins[0].sum(), [t64((3, 4))])

    def test_sum_axis_keepdims(self):
        gradcheck(lambda ins: ins[0].sum(axis=1, keepdims=True), [t64((3, 4))])

    def test_sum_axis(self):
        gradcheck(lambda ins: ins[0].sum(axis=0), [t64((3, 4))])

    def test_mean(self):
        gradcheck(lambda ins: ins[0].mean(), [t64((4, 2))])

    def test_mean_axis(self):
        gradcheck(lambda ins: ins[0].mean(axis=1), [t64((4, 2))])


class TestAutogradMachinery:
    def test_backward_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True, dtype="fp64")
        y = x * x  # dy/dx = 2x = 4
        y.backward()
        assert x.grad[0] == pytest.approx(4.0)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True, dtype="fp64")
        (x * 3.0).backward()
        (x * 5.0).backward()
        assert x.grad[0] == pytest.approx(8.0)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True, dtype="fp64")
        (x * 3.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._node is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True, dtype="fp64")
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        assert x.grad[0] == pytest.approx(1.0)

    def test_backward_wrong_shape_grad(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            x.backward(np.zeros(3))

    def test_diamond_graph_grad(self):
        x = Tensor([3.0], requires_grad=True, dtype="fp64")
        a = x * 2.0
        b = x * 5.0
        (a + b).backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_mixed_dtype_promotes(self):
        a = Tensor([1.0], dtype="fp16")
        b = Tensor([1.0], dtype="fp32")
        assert (a + b).dtype.name == "fp32"

    def test_fp16_op_quantizes_output(self):
        a = Tensor([60000.0], dtype="fp16")
        out = a + a  # 120000 overflows fp16
        assert np.isinf(out.data[0])
