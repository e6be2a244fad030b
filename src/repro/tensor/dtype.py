"""Emulated numeric dtypes.

Training numerics are dtype-faithful without paying NumPy's slow float16
arithmetic: values are *stored* in float32 (float64 for "fp64") but passed
through a quantizer that rounds them onto the fp16 / bf16 grid after every
operation that computes one (a value merely moved — reshaped, indexed,
exchanged — is on the grid already and is passed on as ``exact``),
reproducing precision loss, overflow-to-inf, and gradient underflow — the
phenomena dynamic loss scaling exists to counter.

* ``fp16``: IEEE binary16 (round-to-nearest-even, overflow to ±inf,
  subnormals on binary16's subnormal grid), bit for bit what NumPy's
  float32 → float16 → float32 round trip gives.
* ``bf16``: bfloat16, round-to-nearest-even on the low 16 mantissa bits of
  the binary32 representation.

Both narrow formats round with one integer core, :func:`_round_mantissa`:
round-to-nearest-even on the ``uint32`` view of a float32 array, dropping
the low 13 (fp16) or 16 (bf16) bits. They differ only in the range where
that core is exact:

* bf16 has binary32's exponent, so the core is exact everywhere but NaN,
  whose payload the carry can walk to inf; NaN lanes are written back.
* fp16 has five exponent bits, so the core is exact on its normal range
  ``2**-14 <= |x| < 65520`` (65520 is the least magnitude that rounds to
  inf) and at ±0. Everything outside — fp16 subnormals, overflow, ±inf,
  NaN — takes NumPy's float16 round trip, which stays the reference.

NumPy's cast is not the default because NumPy 2.4 on x86-64 converts in a
scalar loop (~5 ns an element, ~80 ns for one that under- or overflows),
several times the core's cost at the 4k–16k-element tensors of a training
step, even on CPUs with F16C. It is kept for what the core cannot do or
does not win: float64 inputs (the core would round twice), 0-d and small
arrays (below :data:`_FP16_KERNEL_MIN_SIZE` a call's fixed cost decides),
and the out-of-range elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DtypeError

__all__ = [
    "DTYPES",
    "DTypeSpec",
    "as_dtype",
    "quantize",
    "to_wire",
    "promote",
    "itemsize",
]


@dataclass(frozen=True)
class DTypeSpec:
    """Description of one emulated dtype."""

    name: str
    #: NumPy dtype used for in-memory storage.
    storage: np.dtype
    #: Bytes per element on the modelled machine: what a payload of this
    #: dtype is charged on the simulated wire (:func:`to_wire`). In memory the
    #: emulation stores ``storage`` (4 bytes for fp16 and bf16).
    nbytes: int
    #: Max finite representable magnitude (for overflow emulation docs).
    max_value: float
    #: Promotion priority: higher wins when mixing dtypes.
    priority: int


DTYPES: dict[str, DTypeSpec] = {
    "fp64": DTypeSpec("fp64", np.dtype(np.float64), 8, float(np.finfo(np.float64).max), 3),
    "fp32": DTypeSpec("fp32", np.dtype(np.float32), 4, float(np.finfo(np.float32).max), 2),
    "bf16": DTypeSpec("bf16", np.dtype(np.float32), 2, 3.3895314e38, 1),
    "fp16": DTypeSpec("fp16", np.dtype(np.float32), 2, 65504.0, 0),
}


def as_dtype(dtype: str | DTypeSpec) -> DTypeSpec:
    """Look up a dtype by name (idempotent for DTypeSpec inputs)."""
    if isinstance(dtype, DTypeSpec):
        return dtype
    try:
        return DTYPES[dtype]
    except KeyError:
        raise DtypeError(f"unknown dtype {dtype!r}; known: {sorted(DTYPES)}") from None


def itemsize(dtype: str | DTypeSpec) -> int:
    """Bytes per element on the modelled machine."""
    return as_dtype(dtype).nbytes


#: Below this many elements fp16 rounding uses NumPy's float16 round trip:
#: the integer kernel is ~12 NumPy calls of fixed cost each, which the
#: cast's per-element cost outweighs only from 2k–4k elements on. Measured
#: per call on activation-like float32 arrays with 1.4 % zeros and 1.4 %
#: fp16 subnormals (Xeon VM with AVX-512, NumPy 2.4.6): 1,024 elements
#: 8 µs cast / 14 µs kernel, 2,048 14 / 17 µs, 4,096 25 / 23 µs, 16,384
#: 93 / 58 µs. Replaying every fp16 rounding of one recorded training step
#: costs the same (8.7–8.8 ms against 12.2 ms all-cast) for any cut-over
#: from 2,048 to 4,096.
_FP16_KERNEL_MIN_SIZE = 2048

# ``bits << 1`` (the magnitude with the sign shifted out) of 2**-14, fp16's
# least normal, and the width of fp16's normal range from there up to 65520:
# one unsigned compare of the wrapped difference selects every element
# outside the range. ±0 is selected with them (it sits below 2**-14); the
# core rounds it exactly, but excluding it costs a second full pass.
_FP16_NORMAL_LO = np.uint32(0x38800000 << 1)
_FP16_NORMAL_SPAN = np.uint32((0x477FF000 - 0x38800000) << 1)


def _round_mantissa(a: np.ndarray, drop: int) -> np.ndarray:
    """``a`` (float32) rounded to nearest, ties to even, at bit ``drop`` of
    its binary32 pattern: the low ``drop`` bits of the result are zero.

    The result is a new dense array that owns its data, in the memory order
    ``astype`` would give (``np.empty_like``). A carry out of the mantissa
    steps the exponent, which is the correct rounding up to the next binade.
    """
    out = np.empty_like(a)
    bits, rounded = a.view(np.uint32), out.view(np.uint32)
    np.right_shift(bits, drop, out=rounded)
    rounded &= 1
    # Half an ulp of the narrow format, less one unless its last kept bit is odd.
    rounded += (1 << (drop - 1)) - 1
    rounded += bits
    rounded &= (0xFFFFFFFF << drop) & 0xFFFFFFFF
    return out


def _cast_fp16(arr) -> np.ndarray:
    """NumPy's float16 round trip: the fp16 reference."""
    # Overflow to inf is the *intended* emulation of binary16; silence
    # NumPy's cast warning for it.
    with np.errstate(over="ignore"):
        return np.asarray(arr, dtype=np.float16).astype(np.float32)


def _quantize_fp16(arr) -> np.ndarray:
    """Round to the nearest binary16 value; bit-identical to :func:`_cast_fp16`."""
    if type(arr) is not np.ndarray or arr.dtype != np.float32 or arr.size < _FP16_KERNEL_MIN_SIZE:
        return _cast_fp16(arr)
    out = _round_mantissa(arr, 13)
    offset = arr.view(np.uint32) << 1
    offset -= _FP16_NORMAL_LO
    outside = offset >= _FP16_NORMAL_SPAN
    if outside.any():
        out[outside] = _cast_fp16(arr[outside])
    return out


def _quantize_bf16(arr: np.ndarray) -> np.ndarray:
    """Round float32 values to the nearest bfloat16 (ties to even), C order."""
    a = np.ascontiguousarray(arr, dtype=np.float32)
    out = _round_mantissa(a, 16)
    # NaNs must stay NaN (the carry can walk a NaN payload to inf).
    nan_mask = np.isnan(a)
    if nan_mask.any():
        out[nan_mask] = np.nan
    # ``ascontiguousarray`` promoted a 0-d input to shape (1,): hand it back 0-d.
    return out if arr.ndim else out.reshape(())


def quantize(arr: np.ndarray, dtype: str | DTypeSpec) -> np.ndarray:
    """Project ``arr`` onto the representable grid of ``dtype``.

    Returns an array in the dtype's *storage* type. fp32/fp64 are casts;
    fp16 and bf16 emulate rounding and overflow of the narrow format.
    """
    spec = as_dtype(dtype)
    if spec.name == "fp64":
        return np.asarray(arr, dtype=np.float64)
    if spec.name == "fp32":
        return np.asarray(arr, dtype=np.float32)
    if spec.name == "fp16":
        return _quantize_fp16(arr)
    if spec.name == "bf16":
        return _quantize_bf16(np.asarray(arr, dtype=np.float32))
    raise DtypeError(f"unhandled dtype {spec.name!r}")  # pragma: no cover


def to_wire(arr: np.ndarray, dtype: str | DTypeSpec) -> np.ndarray:
    """``arr`` as a payload of ``dtype`` crosses the simulated wire.

    fp16 travels as 2-byte ``np.float16``, so simmpi charges the modelled
    machine's bytes; the receiver widens it back to float32 (simmpi's ``SUM``
    does so for float16 payloads). Every other dtype is returned unchanged:
    bf16 stays float32 on the wire, because NumPy has no 2-byte bfloat16 type.

    Precondition for fp16: every value of ``arr`` is on the fp16 grid, as
    every ``Tensor.data`` of dtype fp16 is. The narrowing is then exact, and
    widening the result to float32 gives back ``arr`` bit for bit.
    """
    if as_dtype(dtype).name == "fp16":
        return arr.astype(np.float16)
    return arr


def promote(a: str | DTypeSpec, b: str | DTypeSpec) -> DTypeSpec:
    """Result dtype when mixing two dtypes (higher priority wins)."""
    sa, sb = as_dtype(a), as_dtype(b)
    return sa if sa.priority >= sb.priority else sb
