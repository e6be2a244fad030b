"""SPMD launcher: run a rank function on N threads with a shared world.

This plays the role of ``mpiexec`` for the simulated MPI: the user writes

.. code-block:: python

    def program(comm):
        part = comm.rank
        total = comm.allreduce(part)
        return total

    result = run_spmd(program, size=8, network=sunway_network(8))
    assert result.returns == [28] * 8
    print(result.simulated_time)   # virtual seconds from the cost model

Error handling: if any rank raises, every other rank is unblocked with
:class:`~repro.errors.RankAbort` and :func:`run_spmd` re-raises the original
exception in the caller's thread. A global timeout converts a hang (a
receive no rank sends to, a collective a rank never joins) into
:class:`~repro.errors.DeadlockError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import CommunicatorError, RankAbort
from repro.simmpi.comm import Comm, _CommState, _World
from repro.simmpi.faults import FaultModel, FaultPlan
from repro.simmpi.stats import TrafficStats

__all__ = ["run_spmd", "SpmdResult"]


@dataclass
class SpmdResult:
    """Outcome of one :func:`run_spmd` invocation."""

    #: Per-rank return values of the rank function.
    returns: list[Any]
    #: Per-rank final virtual clocks (seconds).
    clocks: list[float]
    #: Aggregate traffic counters.
    stats: TrafficStats
    #: Extra per-run metadata (world size etc.).
    meta: dict[str, Any] = field(default_factory=dict)
    #: Virtual-time trace events (populated when run_spmd(trace=True)).
    trace: list[Any] | None = None
    #: The run's shared instrumentation spine (stats + trace + phases).
    context: Any | None = None

    @property
    def simulated_time(self) -> float:
        """Virtual makespan: the slowest rank's final clock."""
        return max(self.clocks) if self.clocks else 0.0


def run_spmd(
    fn: Callable[..., Any],
    size: int,
    *,
    network: Any | None = None,
    seed: int = 0,
    timeout: float = 120.0,
    faults: FaultPlan | FaultModel | None = None,
    args: Sequence[Any] = (),
    trace: bool = False,
    observe: bool = False,
) -> SpmdResult:
    """Execute ``fn(comm, *args)`` on ``size`` simulated ranks.

    Parameters
    ----------
    fn:
        The rank program. Receives a :class:`~repro.simmpi.Comm` as first
        argument.
    size:
        World size (number of rank threads).
    network:
        Optional :class:`~repro.network.NetworkModel`; when given, every
        communication call advances virtual clocks by its modelled cost.
    seed:
        The run's seed, accepted for callers that tag a launch with it; the
        engine itself draws no randomness.
    timeout:
        Wall-clock seconds before blocked ranks raise ``DeadlockError``.
    faults:
        Optional :class:`~repro.simmpi.FaultPlan` (scripted) or
        :class:`~repro.simmpi.FaultModel` (seeded stochastic) for failure
        injection.
    observe:
        Give the run's :class:`~repro.simmpi.RunContext` a live metric
        registry + router telemetry (default: the no-op registry).

    Returns
    -------
    SpmdResult
        Per-rank return values, virtual clocks, and traffic statistics.
    """
    if size < 1:
        raise CommunicatorError(f"world size must be >= 1, got {size}")

    world = _World(size=size, network=network, timeout=timeout, faults=faults,
                   trace=trace, observe=observe)
    state = _CommState(world, list(range(size)))

    returns: list[Any] = [None] * size
    errors: list[BaseException | None] = [None] * size

    def runner(rank: int) -> None:
        comm = Comm(state, rank)
        try:
            returns[rank] = fn(comm, *args)
        except RankAbort as exc:
            errors[rank] = exc
        except BaseException as exc:  # noqa: BLE001 - must ferry any failure
            errors[rank] = exc
            world.abort(exc)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}", daemon=True)
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        # The world deadline bounds blocking inside ranks, so join without
        # an explicit timeout would normally return; keep a cushion anyway.
        t.join(timeout=timeout + 30.0)

    alive = [t for t in threads if t.is_alive()]
    if alive:
        world.abort(CommunicatorError("engine join timeout"))
        raise CommunicatorError(
            f"{len(alive)} rank thread(s) failed to terminate; "
            "likely a non-interruptible hang inside user code"
        )

    # Prefer reporting a real failure over the secondary RankAborts. (A
    # generator: a loop variable would keep the exception in this frame.)
    primary = next(
        (exc for exc in errors if exc is not None and not isinstance(exc, RankAbort)), None
    )
    if primary is None and world.abort_exc is not None:
        primary = world.abort_exc
    if primary is not None:
        # Recovery drivers charge a crashed attempt's virtual time and
        # traffic to their goodput accounting even though no SpmdResult
        # is returned; ferry the partial observations on the exception.
        # The flight dump rides along so fault / deadlock / overflow
        # post-mortems carry every rank's last recorded operations.
        primary.partial_clocks = list(world.clocks)
        primary.partial_context = world.context
        primary.flight_dump = world.context.flight.dump(
            phases=world.context.phase_seconds
        )
        # A crashed rank's traceback holds ``runner``'s frame, whose closure
        # holds ``errors`` and ``world``, and the traceback raised from here
        # holds this frame: drop every reference back to the exceptions, so
        # the dead world and its rank models are freed by reference
        # counting, not whenever the cyclic collector runs.
        errors.clear()
        world.abort_exc = None
        try:
            raise primary
        finally:
            primary = None

    return SpmdResult(
        returns=returns,
        clocks=list(world.clocks),
        stats=world.stats,
        meta={"size": size, "seed": seed, "has_network": network is not None},
        trace=world.trace_events,
        context=world.context,
    )
