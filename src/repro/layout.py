"""The shared parallel-layout descriptor.

One frozen dataclass describes how a world of ranks is factored over the
four parallel axes the stack knows about — expert (EP), tensor (TP),
pipeline (PP) and ZeRO optimizer-state sharding — and validates the
factorization once, in one place. Both the measured side
(:class:`~repro.parallel.runner.TrainingRunConfig`, the strategy checks,
and the one process-group builder,
:func:`~repro.parallel.groups.build_groups`, which takes its split colours
and keys from it) and the analytic side (:class:`~repro.perf.ParallelPlan`) build
a :class:`ParallelLayout`, so a layout that launches is exactly a layout
that projects, and the two can never drift.

Rank-coordinate convention (world rank ``r``)::

    stage      = r // plane_size           (pipeline stage, outermost)
    plane_rank = r %  plane_size
    ep_rank    = plane_rank % ep_size      (innermost: EP groups are
                                            consecutive ranks, the
                                            BaGuaLu placement rule)
    tp_rank    = (plane_rank // ep_size) % tp_size
    dp_index   = plane_rank // (ep_size * tp_size)

Keeping EP innermost puts token alltoalls on the tightest links; TP sits
just outside it, and replica (data-parallel) groups span the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.configs import ModelConfig

__all__ = ["ParallelLayout", "validate_layout_for_model"]


@dataclass(frozen=True)
class ParallelLayout:
    """A validated factorization of ``world_size`` ranks over parallel axes.

    ``pp_size`` must divide the world; ``tp_size * ep_size`` must divide
    the per-stage plane. ``zero_shards`` is a free parameter (the ZeRO
    group is carved greedily, and :func:`~repro.parallel.zero.shard_bounds`
    balances uneven shards), so it only needs to be positive.
    """

    world_size: int
    ep_size: int = 1
    tp_size: int = 1
    pp_size: int = 1
    zero_shards: int = 1

    def __post_init__(self) -> None:
        for name in ("world_size", "ep_size", "tp_size", "pp_size", "zero_shards"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.world_size % self.pp_size != 0:
            raise ConfigError(
                f"pp_size={self.pp_size} must divide world_size={self.world_size}"
            )
        plane = self.world_size // self.pp_size
        if plane % (self.tp_size * self.ep_size) != 0:
            raise ConfigError(
                f"tp_size*ep_size={self.tp_size * self.ep_size} must divide "
                f"the stage plane ({plane} ranks = world_size/pp_size)"
            )

    # ------------------------------------------------------------------ #
    # Derived sizes
    # ------------------------------------------------------------------ #

    @property
    def plane_size(self) -> int:
        """Ranks per pipeline stage."""
        return self.world_size // self.pp_size

    @property
    def dp_size(self) -> int:
        """Pure-replica (data-parallel) width: plane / (tp * ep)."""
        return self.plane_size // (self.tp_size * self.ep_size)

    @property
    def num_ep_groups(self) -> int:
        """EP groups per stage plane."""
        return self.plane_size // self.ep_size

    @property
    def data_streams(self) -> int:
        """Distinct data shards consumed per step (TP groups share one)."""
        return self.world_size // (self.tp_size * self.pp_size)

    # ------------------------------------------------------------------ #
    # Rank coordinates
    # ------------------------------------------------------------------ #

    def stage_of(self, rank: int) -> int:
        """Pipeline stage of a world rank."""
        return rank // self.plane_size

    def ep_rank_of(self, rank: int) -> int:
        """Position within the EP group (innermost axis)."""
        return (rank % self.plane_size) % self.ep_size

    def tp_rank_of(self, rank: int) -> int:
        """Position within the TP group (middle axis)."""
        return ((rank % self.plane_size) // self.ep_size) % self.tp_size

    def dp_index_of(self, rank: int) -> int:
        """Replica index (outermost axis within the plane)."""
        return (rank % self.plane_size) // (self.ep_size * self.tp_size)

    def describe(self) -> str:
        """Human-readable ``pp x dp x tp x ep`` summary."""
        return (
            f"world={self.world_size}: pp={self.pp_size} x dp={self.dp_size} "
            f"x tp={self.tp_size} x ep={self.ep_size}"
            + (f", zero={self.zero_shards}" if self.zero_shards > 1 else "")
        )


def validate_layout_for_model(
    layout: ParallelLayout,
    model: "ModelConfig",
    *,
    expert_granularity: str = "layer",
) -> None:
    """Check that ``layout`` can host ``model`` — the one shared implementation.

    Both sides of the stack call this: the measured runner (through
    :meth:`~repro.parallel.strategy.ParallelStrategy.validate`) and the
    analytic :meth:`~repro.perf.ParallelPlan.validate_against`, so a layout
    rejected by one is rejected by the other with the identical
    :class:`~repro.errors.ConfigError` message.

    ``expert_granularity`` selects how experts are placed on the EP group:

    * ``"layer"`` — every rank holds a slice of *every* MoE layer, so
      ``ep_size`` must divide ``num_experts`` (the measured runner's
      :class:`~repro.parallel.ep.DistributedMoELayer` contract);
    * ``"instance"`` — the ``num_moe_layers * num_experts`` expert MLPs are
      distributed as individual instances (BaGuaLu shards experts over the
      whole machine, so a rank may own experts from only some layers), so
      ``ep_size`` only needs to stay within the instance count.
    """
    if expert_granularity not in ("layer", "instance"):
        raise ConfigError(
            f"expert_granularity must be 'layer' or 'instance', "
            f"got {expert_granularity!r}"
        )
    if expert_granularity == "layer":
        if model.num_experts % layout.ep_size != 0:
            raise ConfigError(
                f"ep_size={layout.ep_size} must divide "
                f"num_experts={model.num_experts}"
            )
    else:
        instances = model.num_moe_layers * model.num_experts
        if layout.ep_size > max(instances, 1):
            raise ConfigError(
                f"ep_size={layout.ep_size} exceeds total expert instances "
                f"({instances}) — ranks would be idle"
            )
    if layout.tp_size > 1:
        if model.d_ff % layout.tp_size != 0:
            raise ConfigError(
                f"tp_size={layout.tp_size} must divide d_ff={model.d_ff}"
            )
        if model.num_dense_ffn_layers == 0:
            raise ConfigError(
                "tp_size > 1 needs dense FFN blocks to shard; "
                f"moe_every={model.moe_every} makes every block MoE "
                "(use moe_every >= 2)"
            )
    if layout.pp_size > 1 and model.n_layers < layout.pp_size:
        raise ConfigError(
            f"cannot split {model.n_layers} layers into "
            f"{layout.pp_size} pipeline stages"
        )
