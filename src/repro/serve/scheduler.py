"""Continuous-batching request scheduler on the virtual clock.

Classic batched inference waits for a full batch, runs it to completion,
and only then admits new work — head-of-line blocking that wrecks tail
latency under bursty arrivals. Continuous batching (Orca-style) instead
treats the batch as a set of *slots*: finished requests free their slot
immediately and waiting requests join mid-flight at the next decode
iteration, entering in their prefill phase while neighbours are mid-decode.

The scheduler is deliberately engine-agnostic: it tracks arrivals,
admission, SLO eviction, and per-request timestamps in *virtual seconds*
(the simmpi clock); the engine owns the actual forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

__all__ = ["Request", "ContinuousBatchScheduler"]

#: Request lifecycle states.
WAITING, ACTIVE, DONE, EVICTED, SHED = (
    "waiting", "active", "done", "evicted", "shed",
)


@dataclass(eq=False)  # identity equality: prompts are arrays
class Request:
    """One inference request and its runtime bookkeeping.

    ``arrival``/``slo`` and all timestamps are virtual seconds. ``slot``
    is the cache/batch row the scheduler assigned while the request is
    active; ``generated`` accumulates decoded token ids. ``tier`` is the
    request's SLO class — 0 is the highest priority; admission control
    prefers low tiers and sheds/evicts high tiers first under pressure.
    """

    rid: int
    prompt: np.ndarray
    max_new_tokens: int
    arrival: float = 0.0
    slo: float | None = None
    tier: int = 0
    state: str = WAITING
    slot: int | None = None
    generated: list[int] = field(default_factory=list)
    t_admitted: float | None = None
    t_first_token: float | None = None
    t_finished: float | None = None
    #: Why the request left the system early (``slo`` / ``cache`` /
    #: ``retries`` / ``shed``); None while running or when completed.
    reason: str | None = None

    def __post_init__(self) -> None:
        self.prompt = np.asarray(self.prompt, dtype=np.int64)
        if self.prompt.ndim != 1 or self.prompt.size < 1:
            raise ConfigError(
                f"request prompt must be a 1-D token array, got shape "
                f"{self.prompt.shape}"
            )
        if self.max_new_tokens < 1:
            raise ConfigError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        if self.slo is not None and self.slo <= 0:
            raise ConfigError(f"slo must be > 0 seconds, got {self.slo}")
        if self.tier < 0:
            raise ConfigError(f"tier must be >= 0, got {self.tier}")

    @property
    def deadline(self) -> float:
        """Completion deadline (inf when no SLO was attached)."""
        return float("inf") if self.slo is None else self.arrival + self.slo

    @property
    def ttft(self) -> float | None:
        """Time to first token (arrival -> first decoded token)."""
        if self.t_first_token is None:
            return None
        return self.t_first_token - self.arrival

    @property
    def last_token(self) -> int:
        """Most recent token (decoded, or the prompt tail before that)."""
        return int(self.generated[-1]) if self.generated else int(self.prompt[-1])

    def record(self) -> dict:
        """Flat summary for metrics logging."""
        return {
            "rid": self.rid,
            "state": self.state,
            "reason": self.reason,
            "tier": self.tier,
            "arrival": self.arrival,
            "prompt_len": int(self.prompt.size),
            "generated": len(self.generated),
            "ttft": self.ttft,
            "finish": self.t_finished,
            "latency": (
                None if self.t_finished is None else self.t_finished - self.arrival
            ),
            "tokens": [int(t) for t in self.generated],
        }


class ContinuousBatchScheduler:
    """Slot-based admission with join-mid-flight, SLO eviction, shedding.

    ``max_batch_size`` bounds concurrently active requests (= cache rows).
    Waiting requests are admitted in ``(tier, arrival)`` order as soon as
    they have both arrived and a free slot (with a single tier this is
    exactly arrival order); requests whose deadline passes are evicted
    (active or still waiting) so one straggler cannot hold a slot against
    its SLO.

    Admission control: with ``queue_depth`` set, :meth:`shed_overloaded`
    rejects arrived requests of tier >= ``shed_tier`` whenever the backlog
    (arrived waiting + active) exceeds the depth — load shedding that
    protects high-tier TTFT before the queue blows up. High tiers are shed
    first, newest arrivals first within a tier, and tiers below
    ``shed_tier`` are never shed.
    """

    def __init__(
        self,
        max_batch_size: int,
        queue_depth: int | None = None,
        shed_tier: int | None = None,
    ):
        if max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if queue_depth is not None and queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {queue_depth}")
        if shed_tier is not None and shed_tier < 0:
            raise ConfigError(f"shed_tier must be >= 0, got {shed_tier}")
        self.max_batch_size = max_batch_size
        self.queue_depth = queue_depth
        self.shed_tier = shed_tier
        self.waiting: list[Request] = []
        self.active: list[Request] = []
        self.finished: list[Request] = []
        self._free_slots = list(range(max_batch_size - 1, -1, -1))

    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> None:
        """Queue a request (kept sorted by arrival time)."""
        self.waiting.append(request)
        self.waiting.sort(key=lambda r: (r.arrival, r.rid))

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.active)

    @property
    def next_arrival(self) -> float:
        """Earliest arrival among waiting requests (inf when none)."""
        return self.waiting[0].arrival if self.waiting else float("inf")

    def admit(self, now: float) -> list[Request]:
        """Move arrived requests into free slots; returns the newcomers.

        Selection order is ``(tier, arrival, rid)`` — within one tier this
        is exactly arrival order, and with a single tier the historical
        behaviour is reproduced bit for bit.
        """
        admitted = []
        while self.waiting and self._free_slots:
            arrived = [r for r in self.waiting if r.arrival <= now]
            if not arrived:
                break
            req = min(arrived, key=lambda r: (r.tier, r.arrival, r.rid))
            self.waiting.remove(req)
            req.slot = self._free_slots.pop()
            req.state = ACTIVE
            req.t_admitted = now
            self.active.append(req)
            admitted.append(req)
        return admitted

    def shed_overloaded(self, now: float) -> list[Request]:
        """Reject sheddable arrived requests while the backlog is over depth.

        No-op unless both ``queue_depth`` and ``shed_tier`` are set. Only
        requests of tier >= ``shed_tier`` are ever shed; highest tier
        first, then newest arrival, so the premium queue drains untouched.
        """
        if self.queue_depth is None or self.shed_tier is None:
            return []
        shed: list[Request] = []
        while True:
            arrived = [r for r in self.waiting if r.arrival <= now]
            if len(arrived) + len(self.active) <= self.queue_depth:
                break
            sheddable = [r for r in arrived if r.tier >= self.shed_tier]
            if not sheddable:
                break
            victim = max(sheddable, key=lambda r: (r.tier, r.arrival, r.rid))
            self._release(victim, SHED, now, reason="shed")
            shed.append(victim)
        return shed

    def preempt_for_premium(self, now: float) -> list[Request]:
        """Evict sheddable actives so arrived premium work gets slots.

        No-op unless ``shed_tier`` is set. While more premium requests
        (tier < ``shed_tier``) have arrived than there are free slots,
        the lowest-priority active of tier >= ``shed_tier`` is evicted
        with reason ``"preempt"``. Premium actives are never preempted,
        so the mechanism cannot thrash within the protected tiers.
        """
        if self.shed_tier is None:
            return []
        preempted: list[Request] = []
        while True:
            premium = [
                r for r in self.waiting
                if r.arrival <= now and r.tier < self.shed_tier
            ]
            if len(premium) <= len(self._free_slots):
                break
            victim = self.lowest_priority_active()
            if victim is None or victim.tier < self.shed_tier:
                break
            self._release(victim, EVICTED, now, reason="preempt")
            preempted.append(victim)
        return preempted

    def evict_expired(self, now: float) -> list[Request]:
        """Evict every request whose SLO deadline has passed."""
        evicted = [r for r in self.active + self.waiting if now > r.deadline]
        for req in evicted:
            self._release(req, EVICTED, now, reason="slo")
        return evicted

    def lowest_priority_active(self) -> Request | None:
        """The active request to sacrifice first under cache pressure.

        Highest tier wins victimhood; within a tier the youngest (latest
        admission, then highest rid) goes first, so long-running premium
        work is protected.
        """
        if not self.active:
            return None
        return max(
            self.active,
            key=lambda r: (r.tier, r.t_admitted if r.t_admitted is not None
                           else 0.0, r.rid),
        )

    def evict(self, request: Request, now: float, reason: str) -> None:
        """Forcibly evict an active request (cache pressure, timeouts)."""
        if request not in self.active:
            raise ConfigError(f"request {request.rid} is not active")
        self._release(request, EVICTED, now, reason=reason)

    def finish(self, request: Request, now: float) -> None:
        """Retire a completed request and free its slot."""
        if request not in self.active:
            raise ConfigError(f"request {request.rid} is not active")
        self._release(request, DONE, now)

    def _release(
        self, req: Request, state: str, now: float, reason: str | None = None
    ) -> None:
        """The one way a request leaves the system: out of the queue or
        its slot, stamped with its terminal state, into ``finished``."""
        (self.active if req.state == ACTIVE else self.waiting).remove(req)
        if req.slot is not None:
            self._free_slots.append(req.slot)
            req.slot = None
        req.state = state
        req.reason = reason
        req.t_finished = now
        self.finished.append(req)
