"""MoE router telemetry: per-layer per-step expert-load series.

BaGuaLu-style expert parallelism is only as fast as its worst-loaded
expert — the per-step imbalance (max/mean) is the synchronous step-time
multiplier, and drop/overflow rates are silent quality loss. This module
records, per MoE layer and per step, the full per-expert load histogram
plus the :func:`~repro.moe.balance.load_stats` scalars (imbalance, cv)
and the capacity drop fraction, giving the run a router timeseries the
report can render as a heatmap.

Recording is driven by the strategy trainers and the serving engine
(rank 0 of each world, with the group-allreduced loads, so numbers are
global and counted once) and only when the run observes
(``RunContext.observing``) — a disabled run never touches this path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.errors import ConfigError

__all__ = ["RouterSample", "RouterTelemetry"]


#: Heatmap shades from idle to the step's busiest expert.
_HEATMAP_RAMP = " .:-=+*#%@"


@dataclass(frozen=True)
class RouterSample:
    """One (layer, step) observation of the router."""

    step: int
    layer: int
    #: Per-expert token counts (global over the EP group).
    loads: np.ndarray
    #: max load / mean load (1.0 = perfect balance).
    imbalance: float
    #: Coefficient of variation of the loads.
    cv: float
    #: Fraction of routed tokens dropped by capacity limits.
    drop_fraction: float


class RouterTelemetry:
    """Append-only store of :class:`RouterSample` records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: list[RouterSample] = []

    def record(
        self,
        step: int,
        layer: int,
        loads: Any,
        drop_fraction: float = 0.0,
    ) -> RouterSample:
        """Record one layer's per-expert loads for one step."""
        from repro.moe.balance import load_stats  # lazy: keeps import light

        stats = load_stats(np.asarray(loads, dtype=np.float64))
        sample = RouterSample(
            step=int(step),
            layer=int(layer),
            loads=stats.loads,
            imbalance=stats.imbalance,
            cv=stats.cv,
            drop_fraction=float(drop_fraction),
        )
        with self._lock:
            self._samples.append(sample)
        return sample

    def record_layers(self, step: int, modules: Iterable[Any]) -> None:
        """Record one step of every MoE layer in ``modules``: any module
        carrying a ``last_global_load`` (the group-allreduced per-expert
        counts of its latest forward), numbered in iteration order."""
        layer = 0
        for module in modules:
            load = getattr(module, "last_global_load", None)
            if load is None:
                continue
            self.record(
                step, layer, load,
                drop_fraction=float(
                    getattr(module, "last_drop_fraction", 0.0) or 0.0
                ),
            )
            layer += 1

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._samples)

    def layers(self) -> list[int]:
        """Sorted layer ids with at least one sample."""
        return sorted({s.layer for s in self._samples})

    def series(self, layer: int) -> list[RouterSample]:
        """Every sample for one layer, in record (step) order."""
        return [s for s in self._samples if s.layer == layer]

    def load_matrix(self, layer: int) -> np.ndarray:
        """(steps, experts) load matrix for one layer."""
        rows = [s.loads for s in self.series(layer)]
        if not rows:
            raise ConfigError(f"no router samples recorded for layer {layer}")
        return np.stack(rows)

    def layer_summary(self) -> list[dict[str, Any]]:
        """One flat record per layer (deterministic order)."""
        out = []
        for layer in self.layers():
            series = self.series(layer)
            imb = np.array([s.imbalance for s in series])
            cv = np.array([s.cv for s in series])
            drop = np.array([s.drop_fraction for s in series])
            out.append(
                {
                    "layer": layer,
                    "steps": len(series),
                    "experts": int(series[0].loads.size),
                    "mean_imbalance": float(imb.mean()),
                    "max_imbalance": float(imb.max()),
                    "mean_cv": float(cv.mean()),
                    "mean_drop_fraction": float(drop.mean()),
                }
            )
        return out

    def records(self) -> list[dict[str, Any]]:
        """Per-sample flat dicts for a JSONL sink (loads as a list)."""
        return [
            {
                "step": s.step,
                "layer": s.layer,
                "loads": [float(v) for v in s.loads],
                "imbalance": s.imbalance,
                "cv": s.cv,
                "drop_fraction": s.drop_fraction,
            }
            for s in self._samples
        ]

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def heatmap(self, layer: int) -> str:
        """ASCII heatmap of one layer: one row per step, one column per
        expert, shade = load / max load of that step (deterministic)."""
        matrix = self.load_matrix(layer)
        lines = []
        for step_row, sample in zip(matrix, self.series(layer)):
            peak = step_row.max()
            if peak <= 0:
                cells = " " * step_row.size
            else:
                top = len(_HEATMAP_RAMP) - 1
                idx = np.minimum((step_row / peak * top).astype(int), top)
                cells = "".join(_HEATMAP_RAMP[i] for i in idx)
            lines.append(f"step {sample.step:>4} |{cells}|")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Session aggregation
    # ------------------------------------------------------------------ #

    def absorb(self, other: "RouterTelemetry") -> None:
        """Append another telemetry's samples (step ids kept as-is —
        elastic resumes continue the global step numbering)."""
        with self._lock:
            self._samples.extend(other._samples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RouterTelemetry({len(self)} samples, layers={self.layers()})"
