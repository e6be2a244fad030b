"""Link specifications for the hierarchical interconnect model.

A link is described by the classic alpha-beta model: a fixed per-message
latency (alpha, seconds) plus a per-byte cost (beta = 1/bandwidth). An
``oversubscription`` factor models bisection-bandwidth taper: traffic that
crosses the link concurrently from many nodes sees the bandwidth divided by
that factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["LinkSpec"]


@dataclass(frozen=True)
class LinkSpec:
    """One level of the interconnect hierarchy.

    Parameters
    ----------
    latency:
        One-way message startup cost in seconds (the alpha term).
    bandwidth:
        Point-to-point bandwidth in bytes/second (1/beta).
    oversubscription:
        Taper factor >= 1. When ``n`` nodes simultaneously push traffic
        across this level, each sees ``bandwidth / oversubscription``.
        1.0 means full bisection bandwidth.
    """

    latency: float
    bandwidth: float
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigError(f"link latency must be >= 0, got {self.latency}")
        if self.bandwidth <= 0:
            raise ConfigError(f"link bandwidth must be > 0, got {self.bandwidth}")
        if self.oversubscription < 1.0:
            raise ConfigError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )

    @property
    def beta(self) -> float:
        """Per-byte transfer cost in seconds (uncontended)."""
        return 1.0 / self.bandwidth

    @property
    def effective_beta(self) -> float:
        """Per-byte cost under full contention at this level."""
        return self.oversubscription / self.bandwidth

    def transfer_time(self, nbytes: float, contended: bool = False) -> float:
        """Time to move ``nbytes`` across this link in one message."""
        if nbytes < 0:
            raise ConfigError(f"nbytes must be >= 0, got {nbytes}")
        beta = self.effective_beta if contended else self.beta
        return self.latency + nbytes * beta

    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> "LinkSpec":
        """Return a copy with latency/bandwidth multiplied by the factors."""
        return LinkSpec(
            latency=self.latency * latency_factor,
            bandwidth=self.bandwidth * bandwidth_factor,
            oversubscription=self.oversubscription,
        )
