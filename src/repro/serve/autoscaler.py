"""Metric-driven replica autoscaler for the serving fleet.

Closes the loop the ROADMAP asks for: the windowed signals the fleet
already measures (premium TTFT p95, backlog depth) drive the number of
live replicas. The policy is deliberately boring — threshold + hysteresis
+ cooldown, the shape every production autoscaler converges to — because
the interesting part here is the *plumbing*: decisions are made on the
virtual clock from deterministic windowed signals, so an autoscaled run
is exactly as reproducible as a fixed-size one.

Policy, evaluated once per dispatch round at virtual time ``now``:

- **scale up** when the trailing-window p95 of the protected tier's TTFT
  exceeds ``ttft_slo_s * scale_up_frac``, or the backlog per live
  replica exceeds ``queue_high`` — capacity is added *before* the SLO
  monitor starts paging, one replica at a time;
- **scale down** when p95 sits under ``ttft_slo_s * scale_down_frac``
  *and* the backlog per replica is below ``queue_low`` — the wide
  hysteresis band prevents flapping;
- both are gated by ``cooldown_s`` of virtual time since the last
  decision, and clamped to ``[min_replicas, max_replicas]``.

The mechanism half lives in :func:`repro.serve.fleet.run_fleet_serving`:
scale-up spawns a fresh replica world (visible after ``spawn_delay_s``
of provisioning), scale-down drains the highest-index idle replica.
Every decision is recorded as a lifecycle event, an ``autoscale`` span,
and a labeled counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError
from repro.obs.timeseries import SlidingWindow

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Declarative autoscaling policy (all times virtual)."""

    min_replicas: int = 1
    max_replicas: int = 4
    #: TTFT objective for the protected tier, in virtual seconds.
    ttft_slo_s: float = 0.5
    #: SLO class the TTFT signal is computed over (0 = premium).
    tier: int = 0
    #: Width of the trailing signal window, in virtual seconds.
    signal_window_s: float = 30.0
    #: Scale up when windowed p95 exceeds slo * this fraction.
    scale_up_frac: float = 0.9
    #: Scale down only when windowed p95 is under slo * this fraction.
    scale_down_frac: float = 0.4
    #: Scale up when backlog per live replica exceeds this.
    queue_high: float = 8.0
    #: Scale down only when backlog per live replica is under this.
    queue_low: float = 1.0
    #: Minimum virtual seconds between scale decisions.
    cooldown_s: float = 20.0
    #: Provisioning delay before a spawned replica can serve.
    spawn_delay_s: float = 5.0
    #: Fewest windowed TTFT samples before p95 is trusted.
    min_samples: int = 4
    #: Dispatch-loop horizon: the fleet assigns work at most this far
    #: ahead per round, so scale decisions interleave with dispatch.
    dispatch_window_s: float = 10.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ConfigError(
                f"max_replicas ({self.max_replicas}) must be >= min_replicas "
                f"({self.min_replicas})"
            )
        if not self.ttft_slo_s > 0:
            raise ConfigError(f"ttft_slo_s must be > 0, got {self.ttft_slo_s}")
        if self.tier < 0:
            raise ConfigError(f"tier must be >= 0, got {self.tier}")
        if not self.signal_window_s > 0:
            raise ConfigError(
                f"signal_window_s must be > 0, got {self.signal_window_s}"
            )
        if not 0 < self.scale_down_frac < self.scale_up_frac:
            raise ConfigError(
                f"need 0 < scale_down_frac < scale_up_frac, got "
                f"{self.scale_down_frac} / {self.scale_up_frac}"
            )
        if not self.queue_low < self.queue_high:
            raise ConfigError(
                f"queue_low ({self.queue_low}) must be < queue_high "
                f"({self.queue_high})"
            )
        if not self.cooldown_s >= 0:
            raise ConfigError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if not self.spawn_delay_s >= 0:
            raise ConfigError(
                f"spawn_delay_s must be >= 0, got {self.spawn_delay_s}"
            )
        if self.min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1, got {self.min_samples}")
        if not self.dispatch_window_s > 0:
            raise ConfigError(
                f"dispatch_window_s must be > 0, got {self.dispatch_window_s}"
            )


class Autoscaler:
    """Online policy evaluation over windowed fleet signals."""

    def __init__(self, config: AutoscalerConfig):
        self.config = config
        self._ttft = SlidingWindow(config.signal_window_s)
        self._last_decision_t = float("-inf")
        #: Every non-hold decision, in virtual-time order.
        self.decisions: list[dict[str, Any]] = []

    def observe_ttft(self, t: float, ttft_s: float, tier: int) -> None:
        """Feed one completed first token (only the protected tier counts)."""
        if tier == self.config.tier:
            self._ttft.observe(t, ttft_s)

    def decide(self, now: float, active: int, backlog: int) -> dict[str, Any]:
        """Evaluate the policy at ``now`` with ``active`` live replicas.

        Returns a decision record: ``action`` (``up`` / ``down`` /
        ``hold``), the signals it saw, and a human-readable ``reason``.
        Non-hold decisions start the cooldown and are appended to
        :attr:`decisions`.
        """
        cfg = self.config
        n = self._ttft.count(now)
        p95 = self._ttft.quantile(95, now)
        per_replica = backlog / active if active else float("inf")
        decision: dict[str, Any] = {
            "t": now,
            "action": "hold",
            "active": active,
            "backlog": backlog,
            "ttft_p95": p95,
            "ttft_samples": n,
            "reason": "steady",
        }
        if now - self._last_decision_t < cfg.cooldown_s:
            decision["reason"] = "cooldown"
            return decision
        p95_high = n >= cfg.min_samples and p95 > cfg.ttft_slo_s * cfg.scale_up_frac
        queue_high = per_replica > cfg.queue_high
        if (p95_high or queue_high) and active < cfg.max_replicas:
            decision["action"] = "up"
            decision["reason"] = (
                f"ttft_p95 {p95:.4g}s > {cfg.ttft_slo_s * cfg.scale_up_frac:.4g}s"
                if p95_high
                else f"backlog/replica {per_replica:.4g} > {cfg.queue_high:g}"
            )
        elif (
            active > cfg.min_replicas
            and per_replica < cfg.queue_low
            and (n == 0 or p95 < cfg.ttft_slo_s * cfg.scale_down_frac)
        ):
            decision["action"] = "down"
            decision["reason"] = (
                f"ttft_p95 {p95:.4g}s < "
                f"{cfg.ttft_slo_s * cfg.scale_down_frac:.4g}s and "
                f"backlog/replica {per_replica:.4g} < {cfg.queue_low:g}"
            )
        if decision["action"] != "hold":
            self._last_decision_t = now
            self.decisions.append(decision)
        return decision

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Autoscaler({self.config.min_replicas}.."
            f"{self.config.max_replicas} replicas, "
            f"{len(self.decisions)} decisions)"
        )
