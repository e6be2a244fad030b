"""NumPy autograd engine with emulated low-precision dtypes."""

from repro.tensor.dtype import (
    DTYPES, DTypeSpec, as_dtype, itemsize, promote, quantize, to_wire,
)
from repro.tensor.tensor import Tensor, is_grad_enabled, no_grad, unbroadcast
from repro.tensor import ops
from repro.tensor.functional import (
    cross_entropy,
    embedding,
    expert_ffn,
    gather_rows,
    gelu,
    layer_norm,
    scatter_rows,
    softmax,
)
from repro.tensor.checkpoint import checkpoint
from repro.tensor.gradcheck import gradcheck, numerical_grad

__all__ = [
    "DTYPES",
    "DTypeSpec",
    "as_dtype",
    "itemsize",
    "promote",
    "quantize",
    "to_wire",
    "Tensor",
    "is_grad_enabled",
    "no_grad",
    "unbroadcast",
    "ops",
    "cross_entropy",
    "embedding",
    "expert_ffn",
    "gather_rows",
    "scatter_rows",
    "gelu",
    "layer_norm",
    "softmax",
    "checkpoint",
    "gradcheck",
    "numerical_grad",
]
