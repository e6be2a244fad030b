"""Numerical gradient checking (central differences in float64)."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["numerical_grad", "gradcheck"]

#: The central-difference step.
EPS = 1e-5


def numerical_grad(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    index: int,
) -> np.ndarray:
    """Central-difference gradient of ``fn(inputs).sum()`` w.r.t. one input.

    The inputs are perturbed in-place (restored afterwards), so the passed
    tensors should be fp64 for meaningful comparisons.
    """
    target = inputs[index]
    grad = np.zeros_like(target.data, dtype=np.float64)
    flat = target.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        plus = float(fn(inputs).data.sum())
        flat[i] = orig - EPS
        minus = float(fn(inputs).data.sum())
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * EPS)
    return grad


def gradcheck(
    fn: Callable[[Sequence[Tensor]], Tensor],
    inputs: Sequence[Tensor],
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> bool:
    """Compare autograd gradients of every ``requires_grad`` input to
    numerical gradients; raises AssertionError with a diagnostic on failure.

    ``fn`` must be a pure function of ``inputs`` returning a Tensor; the
    scalar objective is ``fn(inputs).sum()``. ``fn`` has to build its graph
    when called (it is called again for every perturbation): the analytic
    pass consumes the one it differentiates.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(inputs)
    out.backward(np.ones_like(out.data))
    ok = True
    for i, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        num = numerical_grad(fn, inputs, i)
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.allclose(ana, num, rtol=rtol, atol=atol):
            worst = np.abs(np.asarray(ana, dtype=np.float64) - num).max()
            raise AssertionError(
                f"gradcheck failed for input {i} (shape {t.shape}): "
                f"max abs diff {worst:.3e}\nanalytic:\n{ana}\nnumerical:\n{num}"
            )
    return ok
