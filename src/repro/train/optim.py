"""Optimizers with fp32 master weights for low-precision parameters.

When a parameter's emulated dtype is fp16/bf16, the optimizer keeps an
fp32 master copy: gradients (possibly scaled) update the master, and the
parameter is re-quantized from it — the standard mixed-precision recipe,
without which fp16 weight updates stall once ``lr * grad`` drops below the
representable step around each weight value.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor, quantize

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "adam_update"]


def adam_update(
    master: np.ndarray,
    m: np.ndarray | None,
    v: np.ndarray | None,
    g: np.ndarray,
    step: int,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float = 0.0,
    decoupled: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Adam(W) update of fp32 ``master`` by gradient ``g`` at 1-based
    ``step``: returns ``(new_master, m, v)``.

    The moments are updated in place; passed as ``None`` (no state yet)
    they are created as ``(1-beta1)*g`` / ``(1-beta2)*g*g`` rather than
    folded into zeros, which keeps the sign of a zero gradient. One
    rounding per operation, in the formulas' order — the optimizers that
    call this are pinned bitwise.
    """
    if weight_decay and not decoupled:
        g = g + weight_decay * master
    update = (1 - beta2) * g
    update *= g
    if m is None:
        m, v = (1 - beta1) * g, update.copy()
    else:
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += update
    np.sqrt(np.divide(v, 1.0 - beta2**step, out=update), out=update)
    update += eps
    np.divide(m / (1.0 - beta1**step), update, out=update)
    if weight_decay and decoupled:
        update += weight_decay * master
    update *= lr
    return master - update, m, v


class Optimizer:
    """Base optimizer over a list of tensors."""

    #: The per-parameter fp32 state a subclass keeps, one ``{param index:
    #: array}`` dict per kind in ``self._<kind>``; checkpointed as
    #: ``<kind>.<index>``.
    state_kinds: tuple[str, ...] = ()

    def __init__(self, params: Iterable[Tensor], lr: float):
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

    def master_of(self, index: int) -> np.ndarray:
        """The array actually updated for param ``index`` (master or data)."""
        return self._masters.get(index, self.params[index].data)

    def _write_back(self, index: int, new_master: np.ndarray) -> None:
        p = self.params[index]
        if index in self._masters:
            self._masters[index] = new_master
            p.data = quantize(new_master, p.dtype)
        else:
            p.data = new_master.astype(p.data.dtype, copy=False)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self, grad_scale: float = 1.0) -> None:
        """Apply one update. ``grad_scale`` multiplies gradients (``1 / scale``
        of the loss scaler for fp16 training)."""
        raise NotImplementedError

    # -- checkpointing -------------------------------------------------- #

    def state_dict(self) -> dict[str, np.ndarray | float]:
        state: dict[str, np.ndarray | float] = {"step_count": float(self.step_count)}
        for i, m in self._masters.items():
            state[f"master.{i}"] = m.copy()
        for kind in self.state_kinds:
            for i, array in getattr(self, f"_{kind}").items():
                state[f"{kind}.{i}"] = array.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray | float]) -> None:
        self.step_count = int(state["step_count"])
        for i in list(self._masters):
            key = f"master.{i}"
            if key in state:
                self._masters[i] = np.asarray(state[key], dtype=np.float32).copy()
        for kind in self.state_kinds:
            setattr(self, f"_{kind}", {
                int(k.split(".")[1]): np.asarray(v, dtype=np.float32).copy()
                for k, v in state.items()
                if k.startswith(f"{kind}.")
            })


class SGD(Optimizer):
    """Plain SGD with optional momentum."""

    state_kinds = ("velocity",)

    def __init__(self, params: Iterable[Tensor], lr: float, momentum: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {momentum}")
        self.momentum = momentum
        self._velocity: dict[int, np.ndarray] = {}

    def step(self, grad_scale: float = 1.0) -> None:
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float32, copy=False) * grad_scale
            if self.momentum > 0.0:
                v = self._velocity.get(i)
                v = g if v is None else self.momentum * v + g
                self._velocity[i] = v
                g = v
            master = self.master_of(i).astype(np.float32, copy=False)
            self._write_back(i, master - self.lr * g)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with fp32 moments and bias correction."""

    state_kinds = ("m", "v")

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError(f"betas must be in [0,1), got {betas}")
        if eps <= 0:
            raise ConfigError(f"eps must be > 0, got {eps}")
        if weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {weight_decay}")
        self.beta1, self.beta2 = float(b1), float(b2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    #: AdamW decouples weight decay from the gradient; plain Adam adds
    #: ``wd * w`` to the gradient. Subclass toggles this.
    decoupled_weight_decay = False

    def step(self, grad_scale: float = 1.0) -> None:
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float32, copy=False) * grad_scale
            master = self.master_of(i).astype(np.float32, copy=False)
            new_master, self._m[i], self._v[i] = adam_update(
                master, self._m.get(i), self._v.get(i), g, self.step_count,
                self.lr, self.beta1, self.beta2, self.eps,
                self.weight_decay, self.decoupled_weight_decay,
            )
            self._write_back(i, new_master)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    decoupled_weight_decay = True
