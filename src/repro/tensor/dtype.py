"""Emulated numeric dtypes.

Training numerics are dtype-faithful without paying NumPy's slow float16
arithmetic: values are *stored* in float32 (float64 for "fp64") but passed
through a quantizer that rounds them onto the fp16 / bf16 grid after every
operation that computes one (a value merely moved — reshaped, indexed,
exchanged — is on the grid already and is passed on as ``exact``),
reproducing precision loss, overflow-to-inf, and gradient underflow — the
phenomena dynamic loss scaling exists to counter.

* ``fp16``: IEEE binary16 via a float16 round-trip (round-to-nearest-even,
  overflow to ±inf, subnormal flush handled by NumPy).
* ``bf16``: bfloat16 via round-to-nearest-even truncation of the low 16
  mantissa bits of the binary32 representation.
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
    "promote",
    "storage_dtype",
    "itemsize",
]


@dataclass(frozen=True)
class DTypeSpec:
    """Description of one emulated dtype."""

    name: str
    #: NumPy dtype used for in-memory storage.
    storage: np.dtype
    #: Bytes per element *on the modelled machine* (not in our emulation).
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


def storage_dtype(dtype: str | DTypeSpec) -> np.dtype:
    """NumPy storage dtype for an emulated dtype."""
    return as_dtype(dtype).storage


def itemsize(dtype: str | DTypeSpec) -> int:
    """Bytes per element on the modelled machine."""
    return as_dtype(dtype).nbytes


def _quantize_bf16(arr: np.ndarray) -> np.ndarray:
    """Round float32 values to the nearest bfloat16 (ties to even)."""
    a = np.ascontiguousarray(arr, dtype=np.float32)
    bits = a.view(np.uint32)
    # Round-to-nearest-even on the low 16 bits.
    rounding_bias = ((bits >> 16) & 1) + np.uint32(0x7FFF)
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    # NaNs must stay NaN (the bias trick can walk a NaN payload to inf).
    out = rounded.view(np.float32).copy()
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
        # Overflow to inf is the *intended* emulation of binary16; silence
        # NumPy's cast warning for it.
        with np.errstate(over="ignore"):
            return np.asarray(arr, dtype=np.float16).astype(np.float32)
    if spec.name == "bf16":
        return _quantize_bf16(np.asarray(arr, dtype=np.float32))
    raise DtypeError(f"unhandled dtype {spec.name!r}")  # pragma: no cover


def promote(a: str | DTypeSpec, b: str | DTypeSpec) -> DTypeSpec:
    """Result dtype when mixing two dtypes (higher priority wins)."""
    sa, sb = as_dtype(a), as_dtype(b)
    return sa if sa.priority >= sb.priority else sb
