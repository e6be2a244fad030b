"""``expert_ffn`` has the bits of the per-expert graph it replaces.

The reference is what the MoE expert stage used to build: each expert's
``MLP`` on its row slice of the expert-sorted input. The gradient ``G``
enters each expert's output rows as it would have left the joined output,
so the output, the input gradient (zero signs included) and every parameter
gradient must be byte-equal, after one backward and after a second one over
a retained graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.models.layers import MLP
from repro.tensor import Tensor, expert_ffn, gradcheck, no_grad, quantize

DTYPES = ("fp32", "fp16", "bf16")


def _on_grid(rng, shape, dtype, zeros=0):
    """Normal values on ``dtype``'s grid with ``zeros`` elements set to -0.0."""
    a = quantize(rng.standard_normal(shape), dtype)
    flat = a.reshape(-1)
    if flat.size:
        flat[rng.integers(flat.size, size=zeros)] = -0.0
    return a


def _experts(rng, num, d_model, d_ff, dtype):
    mlps = [MLP(d_model, d_ff, rng, dtype=dtype) for _ in range(num)]
    for mlp in mlps:
        for p in mlp.parameters():
            p.data = _on_grid(rng, p.shape, dtype, zeros=1)
            p.requires_grad = True
    return mlps


def _params(mlps):
    return [(m.fc_in.weight, m.fc_in.bias, m.fc_out.weight, m.fc_out.bias) for m in mlps]


def _grads(x, mlps):
    """Every gradient as bytes (``None`` where none arrived), then cleared."""
    tensors = [x] + [p for m in mlps for p in m.parameters()]
    out = [None if t.grad is None else t.grad.tobytes() for t in tensors]
    for t in tensors:
        t.grad = None
    return out


def _backward_twice(loss):
    loss.backward(retain_graph=True)
    loss.backward()


@pytest.mark.parametrize("dtype", DTYPES)
@given(seed=st.integers(0, 2**32 - 1), grad=st.booleans())
@settings(max_examples=60, deadline=None)
def test_same_bits_as_the_per_expert_mlps(dtype, seed, grad):
    rng = np.random.default_rng(seed)
    num = int(rng.integers(1, 9))
    d_model, d_ff = int(rng.choice([3, 16])), int(rng.choice([5, 64]))
    # Empty experts are common; now and then every expert is empty. Up to
    # 8 x 24 rows of width 64 reach fp16's integer rounding kernel.
    counts = rng.integers(0, 25, size=num) * (rng.random(num) < 0.7) * (rng.random() < 0.9)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    m = int(offsets[-1])
    mlps = _experts(rng, num, d_model, d_ff, dtype)
    xv = _on_grid(rng, (m, d_model), dtype, zeros=3)
    g = Tensor(_on_grid(rng, (m, d_model), dtype, zeros=3), dtype=dtype)
    x = Tensor(xv, requires_grad=True, dtype=dtype)

    if not grad:
        with no_grad():
            out = expert_ffn(x, counts, _params(mlps))
            ref = [mlps[e](x[offsets[e]:offsets[e + 1]]) for e in range(num) if counts[e]]
        assert out._node is None
        assert out.shape == (m, d_model)
        assert out.data.tobytes() == b"".join(r.data.tobytes() for r in ref)
        return

    heads = []
    for e in range(num):
        if counts[e]:
            rows = slice(offsets[e], offsets[e + 1])
            y = mlps[e](x[rows])
            heads.append((y, (y * g[rows]).sum()))
    want_out = b"".join(y.data.tobytes() for y, _ in heads)
    if heads:
        loss = heads[0][1]
        for _, term in heads[1:]:
            loss = loss + term
        _backward_twice(loss)
    want = _grads(x, mlps)

    out = expert_ffn(x, counts, _params(mlps))
    assert out.shape == (m, d_model) and out.dtype.name == dtype
    assert out.data.flags.c_contiguous
    assert out.data.tobytes() == want_out
    _backward_twice((out * g).sum())
    got = _grads(x, mlps)
    if heads:
        assert got == want
    else:  # every expert empty: no expert is a parent, x gets its empty gradient
        assert got[0] == b"" and got[1:] == want[1:] == [None] * len(want[1:])


def test_gradcheck_with_an_empty_expert():
    rng = np.random.default_rng(3)
    mlps = _experts(rng, 3, 4, 6, "fp64")
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True, dtype="fp64")
    params = [p for trio in _params(mlps) for p in trio]
    gradcheck(
        lambda ins: expert_ffn(ins[0], [2, 0, 3], [tuple(ins[1 + 4 * e: 5 + 4 * e])
                                                   for e in range(3)]),
        [x] + params, rtol=1e-3,
    )
    assert all(p.grad is None for p in mlps[1].parameters())


def test_row_counts_must_cover_x():
    rng = np.random.default_rng(0)
    mlps = _experts(rng, 2, 4, 6, "fp32")
    x = Tensor(np.zeros((5, 4)))
    for counts in ([2, 2], [5], [2, 2, 1]):
        with pytest.raises(ShapeError):
            expert_ffn(x, counts, _params(mlps))
