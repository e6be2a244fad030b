"""Adam with fp32 master weights for low-precision parameters.

When a parameter's emulated dtype is fp16/bf16, the optimizer keeps an
fp32 master copy: gradients (possibly scaled) update the master, and the
parameter is re-quantized from it — the standard mixed-precision recipe,
without which fp16 weight updates stall once ``lr * grad`` drops below the
representable step around each weight value.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor, quantize

__all__ = ["Adam", "adam_update"]

#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_update(
    master: np.ndarray,
    m: np.ndarray | None,
    v: np.ndarray | None,
    g: np.ndarray,
    step: int,
    lr: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Adam update of fp32 ``master`` by gradient ``g`` at 1-based
    ``step``: returns ``(new_master, m, v)``.

    The moments are updated in place; passed as ``None`` (no state yet)
    they are created as ``(1-beta1)*g`` / ``(1-beta2)*g*g`` rather than
    folded into zeros, which keeps the sign of a zero gradient. One
    rounding per operation, in the formulas' order — the optimizers that
    call this are pinned bitwise.
    """
    update = (1 - BETA2) * g
    update *= g
    if m is None:
        m, v = (1 - BETA1) * g, update.copy()
    else:
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += update
    np.sqrt(np.divide(v, 1.0 - BETA2**step, out=update), out=update)
    update += EPS
    np.divide(m / (1.0 - BETA1**step), update, out=update)
    update *= lr
    return master - update, m, v


class Adam:
    """Adam (Kingma & Ba) over a list of tensors, with fp32 moments and
    bias correction."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ConfigError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigError(f"lr must be > 0, got {lr}")
        self.lr = float(lr)
        self.step_count = 0
        # fp32 master copies for low-precision params.
        self._masters: dict[int, np.ndarray] = {}
        for i, p in enumerate(self.params):
            if p.dtype.name in ("fp16", "bf16"):
                self._masters[i] = p.data.astype(np.float32).copy()
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, grad_scale: float = 1.0) -> None:
        """Apply one update. ``grad_scale`` multiplies gradients (``1 / scale``
        of the loss scaler for fp16 training)."""
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float32, copy=False) * grad_scale
            master = self._masters.get(i, p.data).astype(np.float32, copy=False)
            new_master, self._m[i], self._v[i] = adam_update(
                master, self._m.get(i), self._v.get(i), g, self.step_count, self.lr,
            )
            if i in self._masters:
                self._masters[i] = new_master
                p.data = quantize(new_master, p.dtype)
            else:
                p.data = new_master.astype(p.data.dtype, copy=False)

    # -- checkpointing -------------------------------------------------- #

    def state_dict(self) -> dict[str, np.ndarray | float]:
        state: dict[str, np.ndarray | float] = {"step_count": float(self.step_count)}
        for kind, arrays in (("master", self._masters), ("m", self._m), ("v", self._v)):
            for i, array in arrays.items():
                state[f"{kind}.{i}"] = array.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray | float]) -> None:
        self.step_count = int(state["step_count"])
        for i in list(self._masters):
            key = f"master.{i}"
            if key in state:
                self._masters[i] = np.asarray(state[key], dtype=np.float32).copy()
        self._m = _indexed(state, "m")
        self._v = _indexed(state, "v")


def _indexed(state: dict[str, np.ndarray | float], kind: str) -> dict[int, np.ndarray]:
    """``{param index: fp32 array}`` of the ``<kind>.<index>`` entries of ``state``."""
    return {
        int(k.split(".")[1]): np.asarray(v, dtype=np.float32).copy()
        for k, v in state.items()
        if k.startswith(f"{kind}.")
    }
