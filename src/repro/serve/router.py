"""Replica router: health-checked, load-aware dispatch for a serving fleet.

The router is the policy half of the fault-tolerant fleet
(:mod:`repro.serve.fleet` is the mechanism half). It tracks per-replica
health on the virtual clock — a crashed replica is *down* until its
capped-exponential backoff (:class:`~repro.resilience.BackoffPolicy`, the
same schedule the training supervisor uses) expires — and scores dispatch
candidates by estimated completion time:

    score(replica) = max(available_at, request_ready) + mean_service * outstanding

i.e. "when could this replica start, plus how much queued work sits in
front of you", with the mean per-request service time learned from
completed segments. Ties break toward the least-loaded, then
lowest-index replica, so dispatch is deterministic and, before any
service time has been observed, exactly round-robin.

Everything here is pure bookkeeping on virtual timestamps — no threads,
no wall clock — so fleet schedules are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.resilience.backoff import BackoffPolicy

__all__ = ["ReplicaRouter", "ReplicaState"]


@dataclass
class ReplicaState:
    """Health + load bookkeeping for one serving replica (virtual time)."""

    index: int
    #: When the replica finishes its currently dispatched segment.
    free_at: float = 0.0
    #: Crash recovery: no dispatch before this time (backoff gate).
    down_until: float = 0.0
    #: Requests currently dispatched and not yet resolved.
    outstanding: int = 0
    crashes: int = 0
    #: Consecutive failed segments (drives the backoff exponent).
    consecutive_failures: int = 0
    completed: int = 0
    #: Virtual seconds of segment makespan this replica has executed.
    busy_time: float = 0.0
    #: Draining replicas finish outstanding work but get no new dispatch
    #: (the autoscaler's scale-down mechanism).
    draining: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def available_at(self) -> float:
        """Earliest virtual time the replica can start new work."""
        return max(self.free_at, self.down_until)

    def healthy(self, now: float) -> bool:
        """Is the replica past its crash backoff at ``now``?"""
        return now >= self.down_until


class ReplicaRouter:
    """Deterministic dispatch + health policy over ``replicas`` replicas."""

    def __init__(self, replicas: int, backoff: BackoffPolicy | None = None):
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.states = [ReplicaState(index=i) for i in range(replicas)]
        self._service_time = 0.0
        self._service_count = 0

    # ------------------------------------------------------------------ #
    # Dispatch policy
    # ------------------------------------------------------------------ #

    @property
    def mean_service(self) -> float:
        """Learned mean virtual seconds per completed request (0 = unknown)."""
        if self._service_count == 0:
            return 0.0
        return self._service_time / self._service_count

    def score(self, state: ReplicaState, ready: float) -> float:
        """Estimated start-plus-queue time for a request ready at ``ready``."""
        return max(state.available_at, ready) + self.mean_service * state.outstanding

    def pick(
        self, ready: float, exclude: tuple[int, ...] = ()
    ) -> ReplicaState | None:
        """The replica estimated to serve a request ready at ``ready`` first.

        ``exclude`` removes candidates (a hedge never re-uses the primary);
        draining replicas are never candidates. Returns None when every
        replica is excluded.
        """
        candidates = [
            s for s in self.states if s.index not in exclude and not s.draining
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda s: (self.score(s, ready), s.outstanding, s.index),
        )

    def on_dispatch(self, replica: int, n: int = 1) -> None:
        """Record ``n`` requests dispatched to ``replica``."""
        self.states[replica].outstanding += n

    # ------------------------------------------------------------------ #
    # Health transitions
    # ------------------------------------------------------------------ #

    def on_segment_done(
        self, replica: int, t_start: float, t_end: float, served: int
    ) -> None:
        """A segment on ``replica`` over ``[t_start, t_end]`` served OK."""
        state = self.states[replica]
        state.free_at = t_end
        state.outstanding = 0
        state.consecutive_failures = 0
        state.completed += served
        state.busy_time += max(0.0, t_end - t_start)
        if served > 0:
            self._service_time += max(0.0, t_end - t_start)
            self._service_count += served

    def on_crash(self, replica: int, crash_t: float) -> float:
        """Mark ``replica`` crashed at ``crash_t``; returns its down-until.

        The replica is unavailable until the capped-exponential backoff
        for its consecutive-failure count expires — the same schedule the
        elastic training supervisor waits between relaunches.
        """
        state = self.states[replica]
        state.crashes += 1
        state.consecutive_failures += 1
        state.outstanding = 0
        state.free_at = crash_t
        state.down_until = crash_t + self.backoff.delay(state.consecutive_failures)
        return state.down_until

    # ------------------------------------------------------------------ #
    # Elastic fleet membership (autoscaler mechanism)
    # ------------------------------------------------------------------ #

    @property
    def active_count(self) -> int:
        """Replicas currently eligible for dispatch (not draining)."""
        return sum(1 for s in self.states if not s.draining)

    def add_replica(self, free_at: float = 0.0) -> ReplicaState:
        """Grow the fleet by one replica, first dispatchable at ``free_at``.

        ``free_at`` models provisioning: a replica spawned at virtual
        time ``t`` with spawn delay ``d`` joins with ``free_at = t + d``.
        Un-drains and returns an existing draining replica instead when
        one exists (cheapest capacity: it is already provisioned).
        """
        for state in self.states:
            if state.draining:
                state.draining = False
                return state
        state = ReplicaState(index=len(self.states), free_at=free_at)
        self.states.append(state)
        return state

    def drain(self, replica: int) -> ReplicaState:
        """Mark ``replica`` draining: it finishes its work, gets no more."""
        state = self.states[replica]
        state.draining = True
        return state

    def drain_candidate(self) -> ReplicaState | None:
        """The replica to drain on scale-down: idle, healthy, highest index.

        Prefers replicas with nothing outstanding so a drain never
        strands in-flight work; returns None when every non-draining
        replica is busy (the caller holds and retries next round).
        """
        idle = [
            s for s in self.states
            if not s.draining and s.outstanding == 0
        ]
        if len(idle) < 1 or self.active_count <= 1:
            return None
        return max(idle, key=lambda s: s.index)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #

    def emit(self, registry, now: float) -> None:
        """Export per-replica state as labeled gauges into ``registry``.

        Called by the fleet each dispatch round, so
        :func:`~repro.obs.export.to_prometheus` and run reports see the
        router's view: outstanding load, availability, health, drain
        status, plus the fleet-wide learned mean service time.
        """
        if not getattr(registry, "enabled", False):
            return
        for s in self.states:
            tag = str(s.index)
            registry.gauge("fleet_router_outstanding", replica=tag).set(s.outstanding)
            registry.gauge("fleet_router_free_at", replica=tag).set(s.free_at)
            registry.gauge("fleet_router_down_until", replica=tag).set(s.down_until)
            registry.gauge("fleet_router_healthy", replica=tag).set(
                1.0 if s.healthy(now) else 0.0
            )
            registry.gauge("fleet_router_draining", replica=tag).set(
                1.0 if s.draining else 0.0
            )
            registry.gauge("fleet_router_crashes", replica=tag).set(s.crashes)
            registry.gauge("fleet_router_completed", replica=tag).set(s.completed)
        registry.gauge("fleet_router_mean_service").set(self.mean_service)
        registry.gauge("fleet_router_replicas").set(len(self.states))
        registry.gauge("fleet_router_active_replicas").set(self.active_count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaRouter(replicas={len(self.states)}, "
            f"mean_service={self.mean_service:.4g}, "
            f"crashes={[s.crashes for s in self.states]})"
        )
