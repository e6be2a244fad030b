"""Adam with fp32 master weights for low-precision parameters.

When a parameter's emulated dtype is fp16/bf16, the optimizer keeps an
fp32 master copy: gradients (possibly scaled) update the master, and the
parameter is re-quantized from it — the standard mixed-precision recipe,
without which fp16 weight updates stall once ``lr * grad`` drops below the
representable step around each weight value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor, quantize
from repro.tensor.buckets import buckets

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
    bias correction.

    State is kept flat per bucket (:func:`~repro.tensor.buckets.buckets`):
    one fp32 master (fp16/bf16 buckets only: fp32/fp64 parameters are their
    own master and are re-read from ``.data`` every step), one ``m`` and one
    ``v``. A step is one :func:`adam_update` and one rounding per bucket, and
    each parameter's ``.data`` becomes a view of its bucket's fresh array.
    A parameter without a gradient is skipped (its state does not move), and
    its moments start at its first gradient; a bucket whose parameters
    differ in either respect is updated run by run.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3):
        self.params: list[Tensor] = list(params)
        if not self.params:
            raise ConfigError("optimizer received no parameters")
        if lr <= 0:
            raise ConfigError(f"lr must be > 0, got {lr}")
        self.lr = float(lr)
        self.step_count = 0
        self._buckets: list[_Bucket] = []
        first = 0
        for run, bounds in buckets(self.params):
            master = None
            if run[0].dtype.name in ("fp16", "bf16"):
                master = np.concatenate([p.data for p in run], axis=None, dtype=np.float32)
            n = bounds[-1]
            self._buckets.append(_Bucket(first, run, bounds, master,
                                         np.zeros(n, dtype=np.float32),
                                         np.zeros(n, dtype=np.float32)))
            first += len(run)
        #: ``(bucket, position in it)`` of each parameter.
        self._slots = [(b, j) for b in self._buckets for j in range(len(b.params))]
        #: Indices of the parameters whose moments exist, in the order they
        #: started (the order ``state_dict`` lists them in).
        self._started: dict[int, None] = {}

    def step(self, grad_scale: float = 1.0) -> None:
        """Apply one update. ``grad_scale`` multiplies gradients (``1 / scale``
        of the loss scaler for fp16 training)."""
        self.step_count += 1
        for b in self._buckets:
            grads = [p.grad for p in b.params]
            keys = [(g is not None, b.first + j in self._started) for j, g in enumerate(grads)]
            j = 0
            for (has_grad, started), run in groupby(keys):
                k = j + len(list(run))
                if has_grad:
                    self._update(b, j, k, grads, started, grad_scale)
                j = k

    def _update(self, b: "_Bucket", j: int, k: int, grads: list, started: bool,
                grad_scale: float) -> None:
        """Adam over parameters ``j:k`` of bucket ``b`` (all with a gradient,
        all started or none)."""
        lo, hi = b.bounds[j], b.bounds[k]
        whole = hi - lo == b.bounds[-1]
        g = np.concatenate(grads[j:k], axis=None, dtype=np.float32) * grad_scale
        if b.master is not None:
            master = b.master[lo:hi]
        else:
            master = np.concatenate([p.data for p in b.params[j:k]], axis=None,
                                    dtype=np.float32)
        if started:
            new, _, _ = adam_update(master, b.m[lo:hi], b.v[lo:hi], g,
                                    self.step_count, self.lr)
        else:
            new, b.m[lo:hi], b.v[lo:hi] = adam_update(master, None, None, g,
                                                      self.step_count, self.lr)
            self._started.update(dict.fromkeys(range(b.first + j, b.first + k)))
        if b.master is not None:
            if whole:
                b.master = new
            else:
                b.master[lo:hi] = new
            data = quantize(new, b.params[0].dtype)
        else:
            data = new.astype(b.params[0].data.dtype, copy=False)
        for p, a, z in zip(b.params[j:k], b.bounds[j:k], b.bounds[j + 1:k + 1]):
            p.data = data[a - lo:z - lo].reshape(p.shape)

    # -- checkpointing -------------------------------------------------- #

    def state_dict(self) -> dict[str, np.ndarray | float]:
        """``step_count`` plus ``master.<i>`` / ``m.<i>`` / ``v.<i>`` copies in
        parameter ``i``'s shape (masters in parameter order, moments in the
        order they started)."""
        state: dict[str, np.ndarray | float] = {"step_count": float(self.step_count)}
        for i, (b, j) in enumerate(self._slots):
            if b.master is not None:
                state[f"master.{i}"] = b.segment(b.master, j).copy()
        for kind in ("m", "v"):
            for i in self._started:
                b, j = self._slots[i]
                state[f"{kind}.{i}"] = b.segment(getattr(b, kind), j).copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray | float]) -> None:
        self.step_count = int(state["step_count"])
        started: dict[int, None] = {}
        for key, value in state.items():
            kind, _, i = key.partition(".")
            if kind not in ("master", "m", "v"):
                continue
            b, j = self._slots[int(i)]
            if kind == "master" and b.master is None:
                continue  # fp32/fp64 parameters are their own master
            b.segment(getattr(b, kind), j)[...] = np.asarray(value).reshape(b.params[j].shape)
            if kind == "m":
                started[int(i)] = None
        self._started = started


@dataclass
class _Bucket:
    """One bucket of an :class:`Adam`: its parameters and flat fp32 state."""

    #: Index of ``params[0]`` in the optimizer's list.
    first: int
    params: list[Tensor]
    #: ``params[j]`` is elements ``bounds[j]:bounds[j + 1]`` of the flat arrays.
    bounds: list[int]
    #: The fp32 master (fp16/bf16 buckets); None where ``.data`` is the master.
    master: np.ndarray | None
    m: np.ndarray
    v: np.ndarray

    def segment(self, flat: np.ndarray, j: int) -> np.ndarray:
        """Parameter ``j``'s part of ``flat``, in its shape (a view)."""
        return flat[self.bounds[j]: self.bounds[j + 1]].reshape(self.params[j].shape)
