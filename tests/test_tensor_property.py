"""Property-based tests of autograd invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.tensor import Tensor, softmax, unbroadcast

small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=32)


def arr(shape=None):
    return arrays(
        dtype=np.float64,
        shape=shape or array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
        elements=small_floats,
    )


@given(arr())
@settings(max_examples=40, deadline=None)
def test_add_commutative(a):
    x, y = Tensor(a, dtype="fp64"), Tensor(a * 0.5 + 1, dtype="fp64")
    assert np.allclose((x + y).data, (y + x).data)


@given(arr())
@settings(max_examples=40, deadline=None)
def test_mul_by_one_identity(a):
    x = Tensor(a, dtype="fp64")
    assert np.allclose((x * 1.0).data, a)


@given(arr())
@settings(max_examples=40, deadline=None)
def test_double_negation(a):
    x = Tensor(a, dtype="fp64")
    assert np.array_equal(((x * -1.0) * -1.0).data, a)


@given(arr())
@settings(max_examples=40, deadline=None)
def test_sum_grad_is_ones(a):
    x = Tensor(a, requires_grad=True, dtype="fp64")
    x.sum().backward()
    assert np.allclose(x.grad, np.ones_like(a))


@given(arr())
@settings(max_examples=40, deadline=None)
def test_linear_grad_is_coefficient(a):
    x = Tensor(a, requires_grad=True, dtype="fp64")
    (x * 3.5).sum().backward()
    assert np.allclose(x.grad, 3.5)


@given(arr())
@settings(max_examples=30, deadline=None)
def test_chain_rule_scaling(a):
    """d/dx of f(2x) = 2 f'(2x), for f(u) = u * u: the graph machinery
    must produce the analytic values through the shared node."""
    x1 = Tensor(a, requires_grad=True, dtype="fp64")
    u1 = x1 * 1.0
    (u1 * u1).sum().backward()
    x2 = Tensor(a, requires_grad=True, dtype="fp64")
    u2 = x2 * 2.0
    (u2 * u2).sum().backward()
    assert np.allclose(x1.grad, 2.0 * a, atol=1e-10)
    assert np.allclose(x2.grad, 2.0 * (2.0 * 2.0 * a), atol=1e-10)


@given(
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=small_floats)
)
@settings(max_examples=40, deadline=None)
def test_softmax_invariant_to_shift(a):
    s1 = softmax(Tensor(a, dtype="fp64")).data
    s2 = softmax(Tensor(a + 123.0, dtype="fp64")).data
    assert np.allclose(s1, s2, atol=1e-10)


@given(
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=small_floats)
)
@settings(max_examples=40, deadline=None)
def test_softmax_grad_orthogonal_to_constant(a):
    """J_softmax^T 1 = 0: gradient of sum(softmax) w.r.t. logits is zero."""
    x = Tensor(a, requires_grad=True, dtype="fp64")
    softmax(x).sum().backward()
    assert np.allclose(x.grad, 0.0, atol=1e-8)


@given(arr(shape=(3, 4)), st.sampled_from([(3, 4), (1, 4), (4,), (3, 1), (1, 1), ()]))
@settings(max_examples=60, deadline=None)
def test_unbroadcast_inverts_broadcast(g, shape):
    reduced = unbroadcast(g.copy(), shape)
    assert reduced.shape == shape
    # Total mass is conserved by summation.
    assert np.isclose(reduced.sum(), g.sum())


@given(arr())
@settings(max_examples=30, deadline=None)
def test_reshape_roundtrip_preserves_grad(a):
    x = Tensor(a, requires_grad=True, dtype="fp64")
    y = x.reshape(-1).reshape(a.shape)
    (y * 2.0).sum().backward()
    assert np.allclose(x.grad, 2.0)


@given(
    arrays(np.float64, st.tuples(st.integers(2, 4), st.integers(2, 4)), elements=small_floats)
)
@settings(max_examples=30, deadline=None)
def test_matmul_identity(a):
    x = Tensor(a, dtype="fp64")
    eye = Tensor(np.eye(a.shape[1]), dtype="fp64")
    assert np.allclose((x @ eye).data, a, atol=1e-8)
