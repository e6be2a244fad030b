"""Model-level precision policy: cast parameters between emulated dtypes.

BaGuaLu's mixed-precision recipe: fp16 parameters and activations for the
forward/backward compute, fp32 master weights inside the optimizer, loss
scaling to protect the fp16 gradient range. Casting here switches the
*model* side; the optimizer keeps masters automatically (see
:mod:`repro.train.optim`).
"""

from __future__ import annotations

from repro.models.module import Module
from repro.tensor import as_dtype, quantize

__all__ = ["cast_model"]


def cast_model(model: Module, dtype: str) -> Module:
    """Cast every parameter of ``model`` to the emulated ``dtype`` in place.

    Returns the model for chaining. Gradients are cleared (their dtype
    would be stale).
    """
    spec = as_dtype(dtype)
    for p in model.parameters():
        p.data = quantize(p.data, spec)
        p.dtype = spec
        p.grad = None
    return model
