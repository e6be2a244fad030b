"""The update block's bucketed walks equal the per-parameter loops they replaced.

``grads_have_overflow``, ``global_grad_norm`` and the flat-vector unflatten
(``unflatten_grads`` / ``assign_flat_params``) walk the parameters in buckets
(:func:`repro.tensor.buckets.buckets`); each is checked bit for bit against a
literal copy of its per-parameter loop. Adam's bucketed step has its own
check in ``test_tensor_exact_ops.py``.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.amp import grads_have_overflow
from repro.models import Parameter
from repro.parallel import unflatten_grads
from repro.parallel.dp import assign_flat_params, flatten_params
from repro.tensor import quantize
from repro.tensor.buckets import BUCKET_ELEMENTS, buckets
from repro.train import global_grad_norm

DTYPES = ("fp16", "bf16", "fp32", "fp64")


def _old_overflow(params) -> bool:
    for p in params:
        if p.grad is None:
            continue
        if not np.isfinite(p.grad).all():
            return True
    return False


def _old_norm(params, grad_scale: float = 1.0) -> float:
    total = 0.0
    for p in params:
        if p.grad is None:
            continue
        g = p.grad.astype(np.float64) * grad_scale
        if not np.isfinite(g).all():
            return math.inf
        total += float((g * g).sum())
    return math.sqrt(total)


def _old_assign(params, flat, attr: str) -> None:
    offset = 0
    for p in params:
        n = p.size
        setattr(p, attr, quantize(flat[offset: offset + n].reshape(p.shape), p.dtype))
        offset += n


def test_buckets_cut_at_dtype_changes_and_the_cap():
    sizes = [(4, "fp16"), (BUCKET_ELEMENTS - 4, "fp16"), (1, "fp16"),
             (BUCKET_ELEMENTS + 1, "fp16"), (2, "fp32"), (3, "fp32"), (0, "fp32")]
    params = [Parameter(np.zeros(n), dtype=dt) for n, dt in sizes]
    walk = buckets(params)
    assert [[params.index(p) for p in run] for run, _ in walk] == [[0, 1], [2], [3], [4, 5, 6]]
    assert [bounds for _, bounds in walk] == [
        [0, 4, BUCKET_ELEMENTS], [0, 1], [0, BUCKET_ELEMENTS + 1], [0, 2, 5, 5],
    ]
    assert buckets([]) == []


@st.composite
def _params(draw):
    """Parameters of random shapes and dtypes (one over the bucket cap now
    and then), gradients absent or on the dtype's grid with inf/NaN lanes,
    exact zeros of both signs and, for fp32/fp64, values past fp16's range."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 12))
    params = []
    for _ in range(n):
        dtype = draw(st.sampled_from(DTYPES))
        big = draw(st.integers(0, 9)) == 0
        shape = (BUCKET_ELEMENTS + int(rng.integers(1, 100)),) if big else tuple(
            int(d) for d in rng.integers(1, 9, size=int(rng.integers(0, 4))))
        p = Parameter(rng.standard_normal(shape), dtype=dtype)
        if draw(st.integers(0, 3)) > 0:
            raw = rng.standard_normal(shape) * 10.0 ** int(rng.integers(-6, 7))
            flat = raw.reshape(-1)
            for value in draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]),
                                       max_size=2)):
                flat[int(rng.integers(0, flat.size))] = value
            p.grad = quantize(raw, dtype)
        params.append(p)
    return params


@settings(max_examples=60, deadline=None)
@given(_params(), st.integers(-14, 2))
def test_overflow_and_norm_equal_the_per_parameter_loops(params, exponent):
    scale = 2.0 ** exponent
    assert grads_have_overflow(params) == _old_overflow(params)
    new, old = global_grad_norm(params, scale), _old_norm(params, scale)
    assert np.float64(new).tobytes() == np.float64(old).tobytes()


@settings(max_examples=40, deadline=None)
@given(_params())
def test_unflatten_equals_the_per_parameter_loop(params):
    rng = np.random.default_rng(len(params))
    flat = (rng.standard_normal(sum(p.size for p in params)) * 1e3).astype(np.float32)
    flat[::7] = -0.0
    twins = [Parameter(p.data, dtype=p.dtype) for p in params]
    for attr, assign in (("grad", unflatten_grads), ("data", assign_flat_params)):
        assign(params, flat)
        _old_assign(twins, flat, attr)
        for p, q in zip(params, twins):
            mine, ref = getattr(p, attr), getattr(q, attr)
            assert mine.tobytes() == ref.tobytes()
            assert mine.dtype == ref.dtype and mine.shape == ref.shape
    assert flatten_params(params).tobytes() == flatten_params(twins).tobytes()

