"""Emulated dtype behaviour: rounding grids, overflow, promotion.

``python tests/test_dtype.py`` checks both narrow formats against their
references on all 2**32 float32 bit patterns (~12 minutes on one core;
not part of the suite).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DtypeError
from repro.tensor import DTYPES, as_dtype, itemsize, promote, quantize, to_wire
from repro.tensor import dtype as dtype_module
from repro.tensor.dtype import _FP16_KERNEL_MIN_SIZE

floats = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, width=32)


def _fp16_reference(x: np.ndarray) -> np.ndarray:
    """NumPy's float16 round trip, which fp16 rounding must equal bit for bit."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float16).astype(np.float32)


def _bf16_reference(arr: np.ndarray) -> np.ndarray:
    """bf16 rounding as written before the shared integer core, kept as its reference."""
    a = np.ascontiguousarray(arr, dtype=np.float32)
    bits = a.view(np.uint32)
    rounding_bias = ((bits >> 16) & 1) + np.uint32(0x7FFF)
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    out = rounded.view(np.float32).copy()
    nan_mask = np.isnan(a)
    if nan_mask.any():
        out[nan_mask] = np.nan
    return out if arr.ndim else out.reshape(())


#: Bit patterns the rounding core and fp16's range rule turn on (the sign is
#: drawn separately): zero, float32 subnormals, fp16's subnormal grid and
#: half its least step, both sides of 2**-14, 65504 / 65520 / 65536, float32
#: max, inf, and NaN payloads in the dropped bits, the kept bits and both.
_EDGE_BITS = (
    0x00000000, 0x00000001, 0x007FFFFF, 0x00800000,
    0x33000000, 0x33000001, 0x33800000, 0x33C00000, 0x387FC000, 0x387FE000,
    0x387FFFFF, 0x38800000, 0x38800001, 0x38801000, 0x38803000,
    0x477FE000, 0x477FEFFF, 0x477FF000, 0x477FF001, 0x47800000,
    0x7F7FFFFF, 0x7F800000, 0x7F800001, 0x7F800FFF, 0x7F801000, 0x7FC00000,
    0x7FFFFFFF,
)

_bit_patterns = st.tuples(
    st.sampled_from((0, 0x80000000)),
    st.one_of(
        st.sampled_from(_EDGE_BITS),
        st.integers(0x38800000, 0x477FFFFF),  # fp16 normal range and its overflow edge
        st.integers(1, 0x387FFFFF),  # below fp16's least normal
        # Exact fp16 ties: half a step above each fp16 normal.
        st.integers(0, 0x77FF).map(lambda kept: 0x38800000 + (kept << 13) + 0x1000),
        st.integers(0, 0x7FFFFFFF),
    ),
).map(lambda sign_mag: sign_mag[0] | sign_mag[1])

#: Element counts (even, so every layout below has two rows) on both sides
#: of the cut-over between NumPy's cast and the kernel.
_SIZES = (2, 6, _FP16_KERNEL_MIN_SIZE - 2, _FP16_KERNEL_MIN_SIZE, _FP16_KERNEL_MIN_SIZE + 6,
          4 * _FP16_KERNEL_MIN_SIZE)
_LAYOUTS = ("C", "F", "strided", "reversed", "transposed-3d", "0-d")


@st.composite
def _float32_arrays(draw) -> np.ndarray:
    """A float32 array of raw bit patterns in one of six memory layouts."""
    layout = draw(st.sampled_from(_LAYOUTS))
    size = 1 if layout == "0-d" else draw(st.sampled_from(_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Mostly fp16-normal magnitudes (what a training step rounds), with every
    # other class mixed in, then Hypothesis's own patterns planted.
    bits = rng.integers(0x38800000, 0x47800000, size=size, dtype=np.uint32)
    special = rng.random(size)
    low, high = special < 0.15, special > 0.95
    bits[low] = rng.integers(0, 0x38800000, size=size, dtype=np.uint32)[low]
    bits[high] = rng.integers(0x47800000, 0x80000000, size=size, dtype=np.uint32)[high]
    bits[(special > 0.5) & (special < 0.52)] = 0
    bits |= rng.integers(0, 2, size=size, dtype=np.uint32) << 31
    planted = draw(st.lists(_bit_patterns, min_size=1, max_size=8))
    where = rng.integers(0, size, size=len(planted))
    bits[where] = planted
    x = bits.view(np.float32)
    if layout == "0-d":
        return x.reshape(())
    if layout == "F":
        return np.asfortranarray(x.reshape(2, -1))
    if layout == "strided":
        wide = np.zeros((2, size), dtype=np.float32)
        wide[:, ::2] = x.reshape(2, -1)
        return wide[:, ::2]
    if layout == "reversed":
        return x.reshape(2, -1)[:, ::-1]
    if layout == "transposed-3d":
        return x.reshape(2, -1, 1).transpose(1, 0, 2)
    return x.reshape(2, -1)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32))


class TestRegistry:
    def test_known_dtypes(self):
        assert set(DTYPES) == {"fp64", "fp32", "fp16", "bf16"}

    def test_as_dtype_idempotent(self):
        spec = as_dtype("fp16")
        assert as_dtype(spec) is spec

    def test_unknown_dtype(self):
        with pytest.raises(DtypeError):
            as_dtype("int4")

    def test_itemsize_on_modelled_machine(self):
        assert itemsize("fp64") == 8
        assert itemsize("fp32") == 4
        assert itemsize("fp16") == 2
        assert itemsize("bf16") == 2

    def test_storage_is_at_least_fp32(self):
        assert as_dtype("fp16").storage == np.float32
        assert as_dtype("bf16").storage == np.float32
        assert as_dtype("fp64").storage == np.float64


class TestQuantizeFp16:
    def test_exact_values_preserved(self):
        x = np.array([0.0, 1.0, -2.5, 1024.0], dtype=np.float32)
        assert np.array_equal(quantize(x, "fp16"), x)

    def test_rounding_to_fp16_grid(self):
        # 1 + 2^-11 is exactly representable in fp16; 1 + 2^-12 is not.
        x = np.array([1.0 + 2**-12], dtype=np.float32)
        q = quantize(x, "fp16")
        assert q[0] in (1.0, 1.0 + 2**-11)

    def test_overflow_to_inf(self):
        q = quantize(np.array([1e5, -1e5]), "fp16")
        assert np.isinf(q).all()
        assert q[0] > 0 > q[1]

    def test_underflow_flushes(self):
        q = quantize(np.array([1e-10]), "fp16")
        assert q[0] == 0.0

    def test_nan_preserved(self):
        assert np.isnan(quantize(np.array([np.nan]), "fp16"))[0]


class TestQuantizeBf16:
    def test_exact_values_preserved(self):
        x = np.array([0.0, 1.0, -2.0, 0.5], dtype=np.float32)
        assert np.array_equal(quantize(x, "bf16"), x)

    def test_mantissa_truncation(self):
        # bf16 keeps 8 mantissa bits: 1 + 2^-8 representable, 1 + 2^-9 not.
        x = np.array([1.0 + 2**-9], dtype=np.float32)
        q = quantize(x, "bf16")
        assert q[0] in (1.0, 1.0 + 2**-8)

    def test_large_dynamic_range_survives(self):
        # The whole point of bf16: 1e38 does not overflow.
        q = quantize(np.array([1e38]), "bf16")
        assert np.isfinite(q[0])

    def test_nan_preserved(self):
        assert np.isnan(quantize(np.array([np.nan]), "bf16"))[0]

    def test_inf_preserved(self):
        q = quantize(np.array([np.inf, -np.inf]), "bf16")
        assert np.isinf(q).all()

    @given(floats)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, v):
        once = quantize(np.array([v], dtype=np.float32), "bf16")
        twice = quantize(once, "bf16")
        assert np.array_equal(once, twice) or (np.isnan(once).any() and np.isnan(twice).any())

    @given(floats)
    @settings(max_examples=100, deadline=None)
    def test_relative_error_bounded(self, v):
        q = float(quantize(np.array([v], dtype=np.float32), "bf16")[0])
        # The relative-error bound holds for normal numbers only
        # (subnormals lose precision absolutely, as in real bfloat16).
        if abs(v) >= np.finfo(np.float32).tiny:
            assert abs(q - v) <= abs(v) * 2**-8


class TestNarrowFormatKernels:
    """The integer rounding core against each format's reference, bit for bit."""

    @given(_float32_arrays())
    @settings(max_examples=300, deadline=None)
    def test_fp16_equals_numpy_cast(self, x):
        q, ref = quantize(x, "fp16"), _fp16_reference(x)
        assert _same_bits(q, ref)
        assert q.strides == ref.strides
        assert q.flags.owndata

    @given(_float32_arrays())
    @settings(max_examples=300, deadline=None)
    def test_bf16_equals_reference(self, x):
        q, ref = quantize(x, "bf16"), _bf16_reference(x)
        assert _same_bits(q, ref)
        assert q.flags.c_contiguous

    @pytest.mark.parametrize("size", [_FP16_KERNEL_MIN_SIZE - 1, _FP16_KERNEL_MIN_SIZE])
    def test_cast_rounds_only_small_arrays_and_out_of_range_elements(self, monkeypatch, size):
        real, seen = dtype_module._cast_fp16, []

        def spy(arr):
            seen.append(np.array(arr, dtype=np.float32).ravel())
            return real(arr)

        monkeypatch.setattr(dtype_module, "_cast_fp16", spy)
        x = np.linspace(-3.0, 3.0, size, dtype=np.float32)
        planted = np.array([1e-6, -7e4, np.inf, np.nan, 0.0], dtype=np.float32)
        x[[3, 50, 51, 600, 1000]] = planted
        q = quantize(x, "fp16")
        assert _same_bits(q, _fp16_reference(x))
        [cast] = seen
        if size < _FP16_KERNEL_MIN_SIZE:
            assert _same_bits(cast, x)
        else:
            assert _same_bits(cast, planted)

    def test_float64_input_is_rounded_once(self):
        # 1 + 2**-11 + 2**-40 rounds up in one step; via float32 it would tie to even.
        x = np.full(2 * _FP16_KERNEL_MIN_SIZE, 1.0 + 2**-11 + 2**-40)
        q = quantize(x, "fp16")
        assert q.dtype == np.float32
        assert np.all(q == np.float32(1.0 + 2**-10))


class TestQuantizeRoundTrips:
    @given(floats)
    @settings(max_examples=100, deadline=None)
    def test_fp32_identity(self, v):
        x = np.array([v], dtype=np.float32)
        assert np.array_equal(quantize(x, "fp32"), x)

    @given(floats)
    @settings(max_examples=100, deadline=None)
    def test_fp16_idempotent(self, v):
        once = quantize(np.array([v], dtype=np.float32), "fp16")
        twice = quantize(once, "fp16")
        assert np.array_equal(once, twice)

    @given(floats)
    @settings(max_examples=50, deadline=None)
    def test_fp16_monotone(self, v):
        a = quantize(np.array([v], dtype=np.float32), "fp16")[0]
        b = quantize(np.array([v + abs(v) * 0.1 + 1.0], dtype=np.float32), "fp16")[0]
        assert a <= b


class TestPromotion:
    def test_fp32_beats_fp16(self):
        assert promote("fp16", "fp32").name == "fp32"

    def test_fp64_beats_everything(self):
        for d in ("fp32", "fp16", "bf16"):
            assert promote(d, "fp64").name == "fp64"

    def test_bf16_beats_fp16(self):
        assert promote("fp16", "bf16").name == "bf16"

    def test_same_dtype(self):
        assert promote("fp16", "fp16").name == "fp16"


class TestWireFormat:
    def test_every_fp16_value_round_trips_through_the_wire_bit_for_bit(self):
        halves = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
        values = halves.astype(np.float32)  # the fp16 grid, as Tensor.data stores it
        wire = to_wire(values, "fp16")
        assert wire.dtype == np.float16 and wire.nbytes == 2 * values.size
        back = wire.astype(np.float32)
        nan = np.isnan(values)
        assert np.array_equal(np.isnan(back), nan)
        assert _same_bits(back[~nan], values[~nan])

    @pytest.mark.parametrize("dtype", ["fp32", "bf16", "fp64"])
    def test_other_dtypes_cross_unchanged(self, dtype):
        arr = quantize(np.linspace(-3.0, 3.0, 7), dtype)
        assert to_wire(arr, dtype) is arr


def _exhaustive(chunk: int = 1 << 22) -> int:
    """Compare both formats with their references on every float32 bit pattern."""
    mismatches = {"fp16": 0, "bf16": 0}
    start = time.perf_counter()
    for first in range(0, 1 << 32, chunk):
        x = np.arange(first, first + chunk, dtype=np.uint64).astype(np.uint32).view(np.float32)
        for name, reference in (("fp16", _fp16_reference), ("bf16", _bf16_reference)):
            mismatches[name] += int(np.count_nonzero(
                quantize(x, name).view(np.uint32) != reference(x).view(np.uint32)))
        if (first + chunk) % (1 << 28) == 0:
            print(f"{(first + chunk) / (1 << 32):6.1%} of 2**32 patterns, "
                  f"{time.perf_counter() - start:6.0f} s, mismatches {mismatches}", flush=True)
    return sum(mismatches.values())


if __name__ == "__main__":
    raise SystemExit(1 if _exhaustive() else 0)
