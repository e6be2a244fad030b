"""Declarative SLOs with multi-window burn-rate alerting on virtual time.

An SLO is a target fraction of *good* events — "95% of premium requests
see TTFT under 200 ms". The error budget is the allowed bad fraction
(1 − target); the **burn rate** over a window is how many times faster
than budget the service is consuming it::

    burn = bad_fraction(window) / (1 - target)

Burn 1.0 exactly spends the budget over the objective's horizon; burn
14.4 exhausts a 30-day budget in 2 days. Following SRE practice, each
alert pairs a *long* window (is the burn sustained?) with a *short*
window at 1/12 of its width (is it still happening?) and
fires only when **both** exceed the threshold — resistant to single
spikes yet fast to resolve once the bleeding stops.

:class:`SLOMonitor` consumes per-request measurements on the virtual
clock (fed by the fleet driver), answers burn rates mid-run (the
autoscaler reads them), and records ``slo_alert`` / ``slo_resolve``
lifecycle events into the :class:`~repro.simmpi.RunContext` when alerts
transition. Everything is deterministic arithmetic on virtual
timestamps, so :func:`slo_report` output is byte-stable across
same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

from repro.errors import ConfigError
from repro.obs.timeseries import SlidingWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.context import RunContext

__all__ = [
    "SLOObjective",
    "BurnRateWindow",
    "SLOMonitor",
    "default_burn_windows",
    "slo_report",
]


@dataclass(frozen=True)
class SLOObjective:
    """One service-level objective over each request's time to first token.

    :meth:`SLOMonitor.observe` receives the TTFT; a request is *good* when
    it is <= ``threshold_s`` (and the request completed at all — callers
    feed failures as ``float('inf')``). ``tier`` restricts the objective
    to one SLO class (None = all traffic). Every objective promises the
    good fraction :attr:`TARGET`.
    """

    name: str
    threshold_s: float
    tier: int | None = None

    #: The good fraction promised.
    TARGET: ClassVar[float] = 0.95

    def __post_init__(self) -> None:
        if self.threshold_s <= 0:
            raise ConfigError(
                f"SLO {self.name!r}: threshold_s must be > 0, got "
                f"{self.threshold_s}"
            )
        if self.tier is not None and self.tier < 0:
            raise ConfigError(
                f"SLO {self.name!r}: tier must be >= 0, got {self.tier}"
            )

    @property
    def budget(self) -> float:
        """Allowed bad fraction (the error budget)."""
        return 1.0 - self.TARGET

    def good(self, value: float) -> bool:
        return value <= self.threshold_s

    def describe(self) -> str:
        scope = "all tiers" if self.tier is None else f"tier {self.tier}"
        return (
            f"{self.name}: ttft <= {self.threshold_s * 1e3:g} ms "
            f"for {self.TARGET:.0%} of {scope}"
        )


@dataclass(frozen=True)
class BurnRateWindow:
    """One long/short window pair of the multi-window alert policy."""

    window_s: float
    threshold: float
    severity: str = "page"

    #: The short window's share of the long one.
    SHORT_FRACTION: ClassVar[float] = 1.0 / 12.0

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigError(f"window_s must be > 0, got {self.window_s}")
        if self.threshold <= 0:
            raise ConfigError(f"burn threshold must be > 0, got {self.threshold}")

    @property
    def short_window_s(self) -> float:
        return self.window_s * self.SHORT_FRACTION


def default_burn_windows(horizon_s: float) -> tuple[BurnRateWindow, ...]:
    """The classic three-tier policy scaled to an objective horizon.

    Mirrors the SRE workbook's 30-day ladder (1h/14.4x page, 6h/6x
    ticket, 3d/1x notice) proportionally: fast burn pages, medium burn
    tickets, slow burn notices.
    """
    if horizon_s <= 0:
        raise ConfigError(f"horizon_s must be > 0, got {horizon_s}")
    return (
        BurnRateWindow(window_s=horizon_s / 720, threshold=14.4, severity="page"),
        BurnRateWindow(window_s=horizon_s / 120, threshold=6.0, severity="ticket"),
        BurnRateWindow(window_s=horizon_s / 10, threshold=1.0, severity="notice"),
    )


class SLOMonitor:
    """Tracks one objective's burn rates and raises/resolves alerts.

    Feed measurements with :meth:`observe` (virtual-time ordered), then
    call :meth:`evaluate` at decision points; transitions append
    ``slo_alert`` / ``slo_resolve`` events to the context (when given)
    and accumulate in :attr:`alerts` for the report. A window fires only
    once it holds :attr:`MIN_SAMPLES` measurements.
    """

    MIN_SAMPLES = 5

    def __init__(
        self,
        objective: SLOObjective,
        windows: tuple[BurnRateWindow, ...] | None = None,
    ):
        if windows is None:
            windows = default_burn_windows(horizon_s=3600.0)
        if not windows:
            raise ConfigError("SLOMonitor needs at least one burn-rate window")
        self.objective = objective
        self.windows = tuple(windows)
        # One sliding bad-indicator stream per distinct width (long +
        # short windows may coincide across policies).
        widths = {w.window_s for w in self.windows}
        widths |= {w.short_window_s for w in self.windows}
        self._streams = {w: SlidingWindow(w) for w in sorted(widths)}
        self.good_total = 0
        self.bad_total = 0
        #: Indices of currently-firing windows.
        self._active: set[int] = set()
        #: Every fire/resolve transition, in virtual-time order.
        self.alerts: list[dict[str, Any]] = []

    # -- feeding -------------------------------------------------------- #

    def observe(self, t: float, value: float, tier: int | None = None) -> bool:
        """Record one measurement; returns whether it met the objective.

        Measurements outside the objective's tier scope are ignored
        (returns True). Failed requests should be fed ``float('inf')``.
        """
        if self.objective.tier is not None and tier != self.objective.tier:
            return True
        bad = 0.0 if self.objective.good(value) else 1.0
        for stream in self._streams.values():
            stream.observe(t, bad)
        if bad:
            self.bad_total += 1
        else:
            self.good_total += 1
        return not bad

    # -- querying ------------------------------------------------------- #

    @property
    def total(self) -> int:
        return self.good_total + self.bad_total

    def bad_fraction(self, now: float, window_s: float) -> float:
        """Bad fraction over the trailing window (0.0 when empty).

        ``window_s`` must be one of the tracked widths (a window's long or
        short width); any other width raises :class:`ConfigError`.
        """
        stream = self._streams.get(window_s)
        if stream is None:
            raise ConfigError(
                f"window_s {window_s} is not a tracked width; tracked: "
                f"{sorted(self._streams)}"
            )
        n = stream.count(now)
        if n == 0:
            return 0.0
        return stream.sum(now) / n

    def burn_rate(self, now: float, window_s: float) -> float:
        """Budget-consumption multiple over the trailing window."""
        return self.bad_fraction(now, window_s) / self.objective.budget

    def firing(self, now: float, window: BurnRateWindow) -> bool:
        """Both the long and the short window exceed the threshold."""
        stream = self._streams[window.window_s]
        if stream.count(now) < self.MIN_SAMPLES:
            return False
        return (
            self.burn_rate(now, window.window_s) > window.threshold
            and self.burn_rate(now, window.short_window_s) > window.threshold
        )

    # -- alert engine --------------------------------------------------- #

    def evaluate(self, now: float, context: "RunContext | None" = None) -> list[dict]:
        """Fire/resolve alerts at virtual time ``now``; returns transitions.

        Each transition dict carries kind (``slo_alert`` / ``slo_resolve``),
        the objective name, window seconds, severity, and the measured
        burn rates. Idempotent while state is unchanged, so calling every
        dispatch round records each episode exactly once.
        """
        transitions: list[dict[str, Any]] = []
        for i, window in enumerate(self.windows):
            now_firing = self.firing(now, window)
            was_firing = i in self._active
            if now_firing == was_firing:
                continue
            kind = "slo_alert" if now_firing else "slo_resolve"
            record = {
                "kind": kind,
                "t": now,
                "slo": self.objective.name,
                "severity": window.severity,
                "window_s": window.window_s,
                "burn_long": self.burn_rate(now, window.window_s),
                "burn_short": self.burn_rate(now, window.short_window_s),
            }
            if now_firing:
                self._active.add(i)
            else:
                self._active.discard(i)
            self.alerts.append(record)
            transitions.append(record)
            if context is not None:
                fields = {k: v for k, v in record.items() if k not in ("kind", "t")}
                context.record_event(kind, t=now, **fields)
                context.spans.instant(
                    f"{kind}:{self.objective.name}", now, kind="slo", **fields
                )
        return transitions

    def summary(self) -> dict[str, Any]:
        """Deterministic flat summary (totals + alert counts)."""
        fired = sum(1 for a in self.alerts if a["kind"] == "slo_alert")
        return {
            "slo": self.objective.name,
            "objective": self.objective.describe(),
            "good": self.good_total,
            "bad": self.bad_total,
            "bad_fraction": (
                self.bad_total / self.total if self.total else 0.0
            ),
            "alerts_fired": fired,
            "alerts_resolved": len(self.alerts) - fired,
        }


def slo_report(monitors: list[SLOMonitor]) -> str:
    """Byte-stable text report over one or more monitors.

    One block per monitor (objective line, totals, every alert
    transition in time order); floats render via ``%.9g`` like the fleet
    report, so two same-seed runs compare equal with ``cmp``.
    """
    lines: list[str] = ["# SLO report"]
    for mon in monitors:
        s = mon.summary()
        lines.append("")
        lines.append(f"## {s['objective']}")
        lines.append(f"good: {s['good']}")
        lines.append(f"bad: {s['bad']}")
        lines.append(f"bad_fraction: {s['bad_fraction']:.9g}")
        lines.append(f"alerts_fired: {s['alerts_fired']}")
        lines.append(f"alerts_resolved: {s['alerts_resolved']}")
        for alert in mon.alerts:
            lines.append(
                f"{alert['kind']} t={alert['t']:.9g} severity={alert['severity']} "
                f"window_s={alert['window_s']:.9g} "
                f"burn_long={alert['burn_long']:.9g} "
                f"burn_short={alert['burn_short']:.9g}"
            )
    return "\n".join(lines) + "\n"
