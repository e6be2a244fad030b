"""Fault injection for the simulated MPI runtime.

Two layers of failure modelling share one engine hook surface:

* :class:`FaultPlan` — *scripted* faults. Tests drop or delay individual
  messages, or kill a rank at a chosen operation index, and assert that
  the engine surfaces the failure as :class:`~repro.errors.FaultInjected`
  / :class:`~repro.errors.DeadlockError` instead of hanging.
* :class:`FaultModel` — *stochastic* faults. A seeded model of the kinds
  of trouble a 96,000-node machine produces continuously: MTBF-driven
  rank crashes in virtual time, permanently dead nodes, and straggler
  nodes (compute slowdown factors applied to virtual clocks). All
  randomness is derived from the seed, the launch index, and the node id,
  so a run is exactly reproducible — including across the relaunches of a
  recovery driver.

The engine consults four hooks (serialized under the world lock):
``on_launch(size)``, ``should_kill(rank, op_index, clock)``,
``compute_scale(rank)``, and ``on_message(src, dst)``. ``FaultPlan``
implements the same hooks with scripted/no-op behaviour, so either object
can be passed as ``run_spmd(faults=...)``.

Nodes vs ranks: a :class:`FaultModel` targets *nodes* (stable hardware
identities). Each launch maps world rank ``r`` to the ``r``-th
non-excluded node, so when a recovery driver excludes a dead node and
relaunches with a smaller world, the survivors keep their fault profile
(straggler factors, MTBF streams) while the bad node is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

__all__ = ["FaultPlan", "MessageFault", "FaultModel"]


@dataclass(frozen=True)
class MessageFault:
    """A fault applied to the nth message on a (src, dst) edge.

    ``drop=True`` silently discards the message (the receiver will block
    until the engine's deadlock timeout). ``delay`` adds virtual seconds to
    the message's arrival time.
    """

    src: int
    dst: int
    match_index: int = 0
    drop: bool = False
    delay: float = 0.0


@dataclass
class FaultPlan:
    """A collection of scripted faults for one SPMD run."""

    message_faults: list[MessageFault] = field(default_factory=list)
    #: rank -> operation index at which the rank raises FaultInjected.
    kill_rank_at_op: dict[int, int] = field(default_factory=dict)
    #: rank -> virtual time (seconds) past which the rank dies at its next
    #: communication operation — scripted *mid-run* crashes whose position
    #: in the timeline does not depend on how many ops preceded them.
    kill_rank_at_time: dict[int, float] = field(default_factory=dict)

    _edge_counts: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)

    def add_message_fault(self, fault: MessageFault) -> "FaultPlan":
        self.message_faults.append(fault)
        return self

    def kill_rank(self, rank: int, at_op: int = 0) -> "FaultPlan":
        """Schedule ``rank`` to die when it issues its ``at_op``-th operation."""
        self.kill_rank_at_op[rank] = at_op
        return self

    def kill_rank_at(self, rank: int, at_time: float) -> "FaultPlan":
        """Schedule ``rank`` to die at its first op past virtual ``at_time``."""
        if at_time < 0:
            raise ConfigError(f"kill time must be >= 0 seconds, got {at_time}")
        self.kill_rank_at_time[rank] = float(at_time)
        return self

    # ------------------------------------------------------------------ #
    # Engine hooks (not thread-safe by themselves; the engine serializes
    # access under the world lock).
    # ------------------------------------------------------------------ #

    def on_launch(self, size: int) -> None:
        """Called once when a world of ``size`` ranks starts (no-op)."""

    def on_message(self, src: int, dst: int) -> MessageFault | None:
        """Return the fault matching this message occurrence, if any."""
        key = (src, dst)
        idx = self._edge_counts.get(key, 0)
        self._edge_counts[key] = idx + 1
        for fault in self.message_faults:
            if fault.src == src and fault.dst == dst and fault.match_index == idx:
                return fault
        return None

    def should_kill(self, rank: int, op_index: int, clock: float = 0.0) -> bool:
        """True when ``rank`` must abort at ``op_index`` / virtual ``clock``."""
        target = self.kill_rank_at_op.get(rank)
        if target is not None and op_index >= target:
            return True
        t_kill = self.kill_rank_at_time.get(rank)
        return t_kill is not None and clock >= t_kill

    def compute_scale(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` (1.0 = healthy)."""
        return 1.0


class FaultModel:
    """Seeded stochastic faults over a fleet of *nodes*.

    Parameters
    ----------
    seed:
        Base seed; every random stream below derives from it.
    mtbf:
        Mean time between failures in *virtual* seconds per node, or None
        to disable random crashes. Each launch draws one exponential
        failure time per node; a rank whose virtual clock passes its
        node's failure time raises :class:`~repro.errors.FaultInjected`
        at its next communication operation.
    dead_nodes:
        Nodes that fail instantly at every launch (op 0) until excluded —
        the "card that never comes back" a recovery driver must shrink
        around.
    stragglers:
        node -> compute slowdown factor (>= 1.0). The engine multiplies
        the node's local compute time by this factor, degrading the whole
        world's synchronous step time to the straggler's pace.

    The model is stateful across launches (``launch_index`` increments on
    every :meth:`on_launch`; :meth:`exclude_node` shrinks the usable
    fleet) — pass one instance through a whole recovery session.
    """

    def __init__(
        self,
        seed: int = 0,
        mtbf: float | None = None,
        dead_nodes: tuple[int, ...] | frozenset[int] = (),
        stragglers: dict[int, float] | None = None,
    ):
        if mtbf is not None and mtbf <= 0:
            raise ConfigError(f"mtbf must be > 0 virtual seconds, got {mtbf}")
        self.seed = int(seed)
        self.mtbf = mtbf
        self.dead_nodes = frozenset(int(n) for n in dead_nodes)
        self.stragglers = dict(stragglers or {})
        for node, factor in self.stragglers.items():
            if factor < 1.0:
                raise ConfigError(
                    f"straggler factor for node {node} must be >= 1.0, got {factor}"
                )
        self.excluded: set[int] = set()
        self.launch_index = -1
        self._node_of_rank: list[int] = []
        self._failure_time: dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # Fleet management
    # ------------------------------------------------------------------ #

    def exclude_node(self, node: int) -> None:
        """Remove ``node`` from the fleet for every future launch."""
        self.excluded.add(int(node))

    def node_of_rank(self, rank: int) -> int:
        """The node world rank ``rank`` is mapped to in the current launch."""
        if not 0 <= rank < len(self._node_of_rank):
            raise ConfigError(
                f"rank {rank} not mapped; current launch has "
                f"{len(self._node_of_rank)} ranks"
            )
        return self._node_of_rank[rank]

    # ------------------------------------------------------------------ #
    # Engine hooks
    # ------------------------------------------------------------------ #

    def on_launch(self, size: int) -> None:
        """Map ``size`` ranks onto the non-excluded fleet; draw MTBF times."""
        self.launch_index += 1
        nodes: list[int] = []
        candidate = 0
        while len(nodes) < size:
            if candidate not in self.excluded:
                nodes.append(candidate)
            candidate += 1
        self._node_of_rank = nodes
        self._failure_time = {}
        for node in nodes:
            if node in self.dead_nodes:
                self._failure_time[node] = 0.0
            elif self.mtbf is not None:
                rng = np.random.default_rng([self.seed, self.launch_index, node])
                self._failure_time[node] = float(rng.exponential(self.mtbf))

    def should_kill(self, rank: int, op_index: int, clock: float = 0.0) -> bool:
        """True when ``rank``'s node has failed by virtual time ``clock``."""
        t_fail = self._failure_time.get(self.node_of_rank(rank))
        return t_fail is not None and clock >= t_fail

    def compute_scale(self, rank: int) -> float:
        """Compute-time multiplier from the rank's node straggler factor."""
        return self.stragglers.get(self.node_of_rank(rank), 1.0)

    def on_message(self, src: int, dst: int) -> None:
        """Messages are never faulted by the model (nodes fail, links don't)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultModel(seed={self.seed}, mtbf={self.mtbf}, "
            f"dead_nodes={sorted(self.dead_nodes)}, "
            f"stragglers={self.stragglers}, excluded={sorted(self.excluded)}, "
            f"launch_index={self.launch_index})"
        )
