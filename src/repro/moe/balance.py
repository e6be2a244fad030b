"""Auxiliary load-balancing losses and imbalance metrics.

The Switch-Transformer auxiliary loss pushes the router toward uniform
expert utilization. Imbalance metrics quantify what the gating strategies
achieve — the quantity experiment F5 reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor
from repro.tensor import ops as T

__all__ = ["load_balance_loss", "LoadStats", "load_stats"]


def load_balance_loss(probs: Tensor, indices: np.ndarray, num_experts: int) -> Tensor:
    """Switch-style auxiliary loss: ``E * sum_e f_e * P_e``.

    ``f_e`` is the fraction of tokens whose *first* routing slot chose
    expert e (a constant w.r.t. the router), ``P_e`` the mean router
    probability for e (differentiable). Minimized (=1) at uniform routing.
    """
    if probs.ndim != 2 or probs.shape[1] != num_experts:
        raise ConfigError(f"probs must be (N, {num_experts}), got {probs.shape}")
    n = probs.shape[0]
    if n == 0:
        raise ConfigError("load_balance_loss needs at least one token")
    first = indices[:, 0]
    f = np.bincount(first, minlength=num_experts).astype(np.float64) / n
    mean_p = probs.mean(axis=0)  # (E,) Tensor
    weighted = mean_p * Tensor(f, dtype=probs.dtype)
    return T.sum_(weighted) * float(num_experts)


@dataclass(frozen=True)
class LoadStats:
    """Summary of per-expert token counts."""

    loads: np.ndarray
    mean: float
    max: float
    min: float
    #: max load / mean load — 1.0 is perfect balance; the step-time
    #: multiplier for synchronous expert parallelism.
    imbalance: float
    #: coefficient of variation (std / mean).
    cv: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LoadStats(mean={self.mean:.1f}, max={self.max:.0f}, "
            f"imbalance={self.imbalance:.2f}, cv={self.cv:.2f})"
        )


def load_stats(loads: np.ndarray) -> LoadStats:
    """Compute balance statistics from per-expert token counts."""
    loads = np.asarray(loads, dtype=np.float64)
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigError("loads must be a non-empty 1-D array")
    mean = float(loads.mean())
    if mean == 0.0:
        return LoadStats(loads=loads, mean=0.0, max=0.0, min=0.0, imbalance=1.0, cv=0.0)
    return LoadStats(
        loads=loads,
        mean=mean,
        max=float(loads.max()),
        min=float(loads.min()),
        imbalance=float(loads.max() / mean),
        cv=float(loads.std() / mean),
    )
