"""Parallel execution plans for the analytic performance model."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigError
from repro.layout import ParallelLayout, validate_layout_for_model
from repro.models.configs import ModelConfig
from repro.network.costmodel import check_algorithm_names

__all__ = ["ParallelPlan"]


@dataclass(frozen=True)
class ParallelPlan:
    """How a model run maps onto the machine.

    One MPI rank per node (the Sunway layout: the 390 cores of a node act
    as one accelerator). EP groups are consecutive ranks, so choosing
    ``ep_size <= supernode_size`` keeps token alltoalls on intra-supernode
    links — the placement rule BaGuaLu exploits.

    Parameters
    ----------
    num_nodes:
        World size (ranks == nodes).
    ep_size:
        Expert-parallel group width; must divide num_nodes and the model's
        expert count.
    micro_batch:
        Sequences per rank per step.
    seq_len:
        Tokens per sequence.
    zero_shards:
        Optimizer-state sharding factor (1 = no ZeRO).
    alltoall / allreduce:
        Algorithm names for the cost model ("auto" default).
    load_imbalance:
        Multiplier (>= 1) on expert compute + alltoall payload from uneven
        routing; 1.0 for a perfectly balanced gate. Feed measured
        :attr:`~repro.moe.LoadStats.imbalance` here.
    """

    num_nodes: int
    ep_size: int
    micro_batch: int = 1
    seq_len: int = 2048
    zero_shards: int = 1
    alltoall: str | None = None
    allreduce: str | None = None
    load_imbalance: float = 1.0
    #: Activation recomputation: trades the per-layer activation memory
    #: for one extra forward pass (~1/3 more compute).
    recompute: bool = False
    #: Fraction of gradient-sync communication hidden behind backward
    #: compute (bucketed allreduce overlapping, as BaGuaLu-class systems
    #: do). 0 = fully exposed, 1 = hidden up to the compute time.
    overlap: float = 0.0
    #: Chunked async expert-dispatch width (analytic side of the measured
    #: ``overlap_chunks`` knob): >1 splits each MoE alltoall into that
    #: many pipelined chunks, paying extra per-chunk latency but hiding
    #: dispatch/combine behind expert compute; it also implies bucketed
    #: gradient-sync overlap (``overlap`` is treated as 1.0).
    overlap_chunks: int = 1
    #: Tensor-parallel width (analytic side of the tp/tp_ep strategies).
    tp_size: int = 1
    #: Pipeline stages (analytic side of the pipeline strategies).
    pp_size: int = 1
    #: Microbatches per step for pipeline plans (sets the GPipe bubble
    #: fraction ``(pp - 1) / num_microbatches``); irrelevant when pp=1.
    num_microbatches: int = 1

    def __post_init__(self) -> None:
        # The one home of the layout and workload checks: a
        # TrainingRunConfig validates by building its plan, so a run that
        # launches is exactly a plan that prices.
        _ = self.layout
        if self.micro_batch < 1 or self.seq_len < 1:
            raise ConfigError("micro_batch and seq_len must be >= 1")
        if self.num_microbatches < 1:
            raise ConfigError(
                f"num_microbatches must be >= 1, got {self.num_microbatches}"
            )
        if not self.load_imbalance >= 1.0:
            raise ConfigError(
                f"load_imbalance must be >= 1, got {self.load_imbalance}"
            )
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError(f"overlap must be in [0, 1], got {self.overlap}")
        if self.overlap_chunks < 1:
            raise ConfigError(
                f"overlap_chunks must be >= 1, got {self.overlap_chunks}"
            )
        # The cost model would price an unknown name as "auto".
        check_algorithm_names(allreduce=self.allreduce, alltoall=self.alltoall)

    @cached_property
    def layout(self) -> ParallelLayout:
        """The shared, validated layout descriptor for this plan."""
        return ParallelLayout(
            world_size=self.num_nodes,
            ep_size=self.ep_size,
            tp_size=self.tp_size,
            pp_size=self.pp_size,
            zero_shards=self.zero_shards,
        )

    @property
    def tokens_per_rank(self) -> int:
        return self.micro_batch * self.seq_len

    @property
    def global_tokens(self) -> int:
        """Tokens consumed machine-wide per step.

        Counts distinct data streams: TP peers consume the same shard and
        a pipeline's stages jointly process one stream, so the machine
        consumes ``world / (tp * pp)`` streams of ``tokens_per_rank`` each
        (equal to ``num_nodes`` streams for in-plane single-axis plans).
        """
        return self.tokens_per_rank * self.layout.data_streams

    def validate_against(self, config: ModelConfig) -> None:
        """Check the plan is compatible with a model config.

        Delegates the layout-vs-model checks to the shared
        :func:`~repro.layout.validate_layout_for_model` (the same
        implementation the measured runner dispatches through), with
        experts placed at *instance* granularity: the
        ``num_moe_layers * num_experts`` expert MLPs of the model are
        distributed over the EP group (BaGuaLu shards its experts over the
        whole machine, so a rank may own experts from only some layers).
        The only plan-specific check left here is ``seq_len``, which the
        layout does not carry (:meth:`check_seq_len`).
        """
        validate_layout_for_model(
            self.layout, config, expert_granularity="instance"
        )
        self.check_seq_len(config)

    def check_seq_len(self, config: ModelConfig) -> None:
        """Refuse a sequence longer than the model has positions for.

        The one sequence-length check: :meth:`validate_against` runs it, and
        so does every ``TrainingRunConfig`` at construction, so a launched
        run never meets it inside a rank thread.
        """
        if self.seq_len > config.max_seq_len:
            raise ConfigError(
                f"plan seq_len={self.seq_len} exceeds model "
                f"max_seq_len={config.max_seq_len}"
            )
