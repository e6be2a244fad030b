"""Analytic per-step time model: compute + communication under a plan.

This is the instrument that extends the measured small-scale simmpi runs to
the paper's 96,000-node regime. The same network cost model drives both
(the simmpi virtual clock calls it per operation; here we call it once per
step phase), so projected and measured curves are mutually consistent by
construction — validated by a calibration test.

Phases per training step (synchronous, conservatively non-overlapped):

* dense compute: forward+backward FLOPs divided by the node's sustained
  FLOP/s (peak x ``compute_efficiency``), split over pipeline stages and
  (for the dense-FFN share) over the TP group;
* expert compute: routed-row MLP time, scaled by the gate's load-imbalance
  factor (the slowest expert paces the group);
* token alltoall: 2 exchanges forward + 2 backward per MoE layer (the
  forward ones in ``overlap_chunks`` chunks each, the backward ones whole);
* dense-gradient allreduce over the stage plane (TP-sharded FFN gradients
  sync separately over the same-shard group);
* expert-gradient allreduce over the expert-data-parallel group (every
  gradient sync priced at 4 B an element, although a measured fp16 run
  sends 2: DESIGN.md §8, "The wire carries the modelled dtype");
* TP activation allreduces (2 per sharded dense-FFN block, fwd + bwd);
* ZeRO-1 allgather of the updated master shards (at 4 B, like the
  gradient sync);
* pipeline p2p activation/grad transfers between adjacent stages;
* pipeline bubble: the GPipe fill/drain idle time,
  ``(pp - 1) / num_microbatches`` of the per-stage compute.

Not priced: the per-layer counts alltoall and the step's two bookkeeping
allreduces (expert loads; overflow flag + loss), DESIGN.md §8 "Step
bookkeeping is two collectives".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.specs import MachineSpec
from repro.models.configs import ModelConfig
from repro.network.costmodel import NetworkModel
from repro.perf.flops import (
    BACKWARD_MULTIPLIER,
    dense_forward_flops_per_token,
    expert_forward_flops_per_row,
)
from repro.perf.plan import ParallelPlan
from repro.tensor.dtype import itemsize

__all__ = ["StepBreakdown", "StepModel", "ComputeTimer"]


@dataclass(frozen=True)
class StepBreakdown:
    """Seconds per step, by phase.

    The classic MoDa terms are always present; the TP / ZeRO / pipeline
    terms default to zero so single-axis plans read exactly as before.
    """

    dense_compute: float
    expert_compute: float
    alltoall: float
    dense_allreduce: float
    expert_allreduce: float
    #: Activation allreduces over the TP group (2 per sharded FFN block).
    tp_allreduce: float = 0.0
    #: ZeRO-1 allgather of updated fp32 master shards over the ZeRO group.
    zero_allgather: float = 0.0
    #: GPipe activation/gradient sends between adjacent pipeline stages.
    pipeline_p2p: float = 0.0
    #: GPipe fill/drain idle time; scales with compute, not bandwidth.
    pipeline_bubble: float = 0.0
    #: The forward share of ``alltoall`` (already counted there): the
    #: chunked exchanges, the only ones expert compute can hide.
    alltoall_forward: float = 0.0

    @property
    def compute(self) -> float:
        return self.dense_compute + self.expert_compute

    @property
    def communication(self) -> float:
        return (
            self.alltoall
            + self.dense_allreduce
            + self.expert_allreduce
            + self.tp_allreduce
            + self.zero_allgather
            + self.pipeline_p2p
        )

    @property
    def total(self) -> float:
        return self.compute + self.communication + self.pipeline_bubble

    def as_dict(self) -> dict[str, float]:
        return {
            "dense_compute": self.dense_compute,
            "expert_compute": self.expert_compute,
            "alltoall": self.alltoall,
            "dense_allreduce": self.dense_allreduce,
            "expert_allreduce": self.expert_allreduce,
            "tp_allreduce": self.tp_allreduce,
            "zero_allgather": self.zero_allgather,
            "pipeline_p2p": self.pipeline_p2p,
            "pipeline_bubble": self.pipeline_bubble,
            "total": self.total,
        }


class ComputeTimer:
    """Per-operation compute-time estimates for *measured* simmpi runs.

    The SPMD runners advance each rank's virtual clock with these
    estimates, so small-scale measured runs include modelled compute on the
    same machine spec the analytic :class:`StepModel` uses — keeping
    measured and projected scaling curves consistent.

    ``tp_size`` discounts the dense-FFN share of the per-token FLOPs (the
    Megatron-sharded matmuls); the pipeline split is applied by the
    pipeline trainers themselves (each stage advances ``1/pp`` of the
    dense step time).
    """

    def __init__(
        self,
        config: ModelConfig,
        machine: MachineSpec,
        seq_len: int,
        tp_size: int = 1,
    ):
        if tp_size < 1:
            raise ConfigError(f"tp_size must be >= 1, got {tp_size}")
        self.config = config
        self.machine = machine
        self.seq_len = seq_len
        self.tp_size = tp_size
        self._node_flops = (
            machine.processor.flops(config.dtype) * machine.compute_efficiency
        )
        self._dense_fwd_per_token = dense_forward_flops_per_token(
            config, seq_len, tp_size
        )
        self._expert_fwd_per_row = expert_forward_flops_per_row(config)

    def dense_step_time(self, num_tokens: int) -> float:
        """Forward+backward dense compute time for ``num_tokens`` tokens."""
        flops = num_tokens * self._dense_fwd_per_token * (1.0 + BACKWARD_MULTIPLIER)
        return flops / self._node_flops

    def dense_forward_time(self, num_tokens: int) -> float:
        """Forward-only share of the dense compute for ``num_tokens``."""
        return num_tokens * self._dense_fwd_per_token / self._node_flops

    def dense_backward_time(self, num_tokens: int) -> float:
        """Backward-only share — what overlapped gradient sync hides behind."""
        flops = num_tokens * self._dense_fwd_per_token * BACKWARD_MULTIPLIER
        return flops / self._node_flops

    def expert_layer_time(self, rows: int) -> float:
        """Forward+backward time for ``rows`` routed through one MoE layer."""
        flops = rows * self._expert_fwd_per_row * (1.0 + BACKWARD_MULTIPLIER)
        return flops / self._node_flops


def _exposed_step_time(bd: StepBreakdown, plan: ParallelPlan) -> float:
    """Seconds of ``bd`` left on the critical path under ``plan``'s overlap."""
    sync = bd.dense_allreduce + bd.expert_allreduce
    overlap = plan.overlap if plan.overlap_chunks == 1 else 1.0
    hidden = min(sync, overlap * bd.compute)
    if plan.overlap_chunks > 1:
        frac = (plan.overlap_chunks - 1) / plan.overlap_chunks
        hidden += min(bd.alltoall_forward * frac, bd.expert_compute)
    return bd.total - hidden


class StepModel:
    """Bind (model config, machine, network) and evaluate plans.

    Every strategy is priceable: plans may set any combination
    of ``ep_size`` / ``tp_size`` / ``pp_size`` / ``zero_shards`` and each
    axis contributes its own :class:`StepBreakdown` term.
    """

    def __init__(self, config: ModelConfig, machine: MachineSpec, network: NetworkModel):
        self.config = config
        self.machine = machine
        self.network = network

    # ------------------------------------------------------------------ #
    # Component times
    # ------------------------------------------------------------------ #

    def _node_flops(self) -> float:
        return self.machine.processor.flops(self.config.dtype) * self.machine.compute_efficiency

    def dense_compute_time(self, plan: ParallelPlan) -> float:
        """Per-node attention/backbone/router compute (fwd + bwd).

        The stage holds ``1/pp`` of the layers; the TP group shards the
        dense-FFN matmul share ``1/tp``-ways.
        """
        dense_fwd = dense_forward_flops_per_token(
            self.config, plan.seq_len, plan.tp_size
        )
        multiplier = 1.0 + BACKWARD_MULTIPLIER + (1.0 if plan.recompute else 0.0)
        total = plan.tokens_per_rank * dense_fwd * multiplier / plan.pp_size
        return total / self._node_flops()

    def expert_compute_time(self, plan: ParallelPlan) -> float:
        """Per-node expert MLP compute, paced by the most-loaded expert."""
        cfg = self.config
        # Rows hitting this node's experts per step under uniform routing:
        # every rank contributes tokens*top_k slots spread over ep_size.
        rows = plan.tokens_per_rank * cfg.top_k  # group-total = rows*ep_size,
        # per-node share is rows (uniform); imbalance scales the critical
        # path, and a stage sees only its 1/pp share of the MoE layers.
        flops = (
            rows * cfg.num_moe_layers * expert_forward_flops_per_row(cfg)
            / plan.pp_size
        )
        flops *= (1.0 + BACKWARD_MULTIPLIER) * plan.load_imbalance
        return flops / self._node_flops()

    def _alltoall_times(self, plan: ParallelPlan) -> tuple[float, float]:
        """(forward, backward) seconds of the token exchanges.

        Per MoE layer the dispatch and the combine each go forward in
        ``overlap_chunks`` exchanges and come back, as gradients, in one
        exchange each — the schedule ``parallel/ep.py`` runs.
        """
        cfg = self.config
        if plan.ep_size == 1:
            return 0.0, 0.0
        bytes_per_token = cfg.d_model * itemsize(cfg.dtype)
        # Per-pair payload: this rank's routed slots spread over the group.
        per_pair = (
            plan.tokens_per_rank * cfg.top_k * bytes_per_token / plan.ep_size
        ) * plan.load_imbalance
        ranks = range(plan.ep_size)  # EP groups are consecutive ranks
        whole = self.network.alltoall_time(per_pair, ranks, algorithm=plan.alltoall)
        # A chunked forward exchange issues overlap_chunks smaller ones: the
        # bandwidth term is unchanged but every chunk pays the latency
        # (alpha) term again — the price of overlap.
        chunks = plan.overlap_chunks
        chunked = whole if chunks == 1 else chunks * self.network.alltoall_time(
            per_pair / chunks, ranks, algorithm=plan.alltoall
        )
        # A stage owns 1/pp of the MoE layers.
        return (
            2.0 * cfg.num_moe_layers * chunked / plan.pp_size,
            2.0 * cfg.num_moe_layers * whole / plan.pp_size,
        )

    def dense_allreduce_time(self, plan: ParallelPlan) -> float:
        """Per-stage gradient allreduce of replicated parameters, priced at
        4 B a gradient (fp32) even for an fp16 model, whose measured sync
        sends 2.

        With ``pp > 1`` each stage syncs its own ``1/pp`` parameter slice
        over its plane; with ``tp > 1`` the TP-sharded dense-FFN gradients
        are excluded here and priced by :meth:`tp_grad_allreduce_time`.
        """
        layout = plan.layout
        if layout.plane_size == 1:
            return 0.0
        cfg = self.config
        dense_count = cfg.replicated_params
        if plan.tp_size > 1:
            dense_count -= cfg.dense_ffn_params
        nbytes = dense_count * 4 / plan.pp_size
        ranks = range(layout.plane_size)
        return self.network.allreduce_time(nbytes, ranks, algorithm=plan.allreduce)

    def tp_grad_allreduce_time(self, plan: ParallelPlan) -> float:
        """TP-sharded FFN gradients allreduced over the same-shard group
        (4 B a gradient, like :meth:`dense_allreduce_time`)."""
        layout = plan.layout
        if plan.tp_size == 1:
            return 0.0
        tpdp = [r for r in range(layout.plane_size) if layout.tp_rank_of(r) == 0]
        if len(tpdp) < 2:
            return 0.0
        nbytes = (
            self.config.dense_ffn_params / plan.tp_size * 4 / plan.pp_size
        )
        return self.network.allreduce_time(nbytes, tpdp, algorithm=plan.allreduce)

    def tp_activation_allreduce_time(self, plan: ParallelPlan) -> float:
        """Megatron activation allreduces: 2 per sharded FFN block (fwd+bwd)."""
        cfg = self.config
        if plan.tp_size == 1 or cfg.num_dense_ffn_layers == 0:
            return 0.0
        nbytes = plan.tokens_per_rank * cfg.d_model * itemsize(cfg.dtype)
        # TP peers sit at stride ep_size (EP is the innermost axis).
        ranks = range(0, plan.tp_size * plan.ep_size, plan.ep_size)
        one = self.network.allreduce_time(nbytes, ranks, algorithm=plan.allreduce)
        blocks = cfg.num_dense_ffn_layers / plan.pp_size
        return 2.0 * blocks * one

    def expert_allreduce_time(self, plan: ParallelPlan) -> float:
        """Expert-gradient allreduce across EP-group replicas, priced at
        4 B a gradient (fp32) even for an fp16 model, whose measured sync
        sends 2."""
        layout = plan.layout
        if layout.num_ep_groups == 1:
            return 0.0
        cfg = self.config
        total_expert_params = (
            cfg.num_moe_layers * cfg.num_experts * cfg.ffn_expert_params
        )
        nbytes = total_expert_params / plan.ep_size * 4 / plan.pp_size
        # EDP peers: same EP position in every group -> stride ep_size.
        ranks = range(0, layout.plane_size, plan.ep_size)
        return self.network.allreduce_time(nbytes, ranks, algorithm=plan.allreduce)

    def zero_allgather_time(self, plan: ParallelPlan) -> float:
        """ZeRO-1: allgather of the updated fp32 master shards.

        Mirrors :class:`~repro.parallel.zero.ZeroAdamW`: each rank updates
        its ``1/zero_shards`` slice of the replicated (dense) parameters in
        fp32 and allgathers the result over the (consecutive-rank) ZeRO
        group every step. Priced at 4 B a parameter; a measured fp16 run
        allgathers the shard rounded to fp16, at 2 B.
        """
        if plan.zero_shards == 1:
            return 0.0
        nbytes_per_rank = self.config.replicated_params * 4 / plan.zero_shards
        ranks = range(plan.zero_shards)
        return self.network.allgather_time(nbytes_per_rank, ranks)

    def pipeline_p2p_time(self, plan: ParallelPlan) -> float:
        """GPipe stage-boundary transfers: per microbatch, one activation
        send forward and one gradient send backward per adjacent pair."""
        layout = plan.layout
        if plan.pp_size == 1:
            return 0.0
        cfg = self.config
        micro_tokens = plan.tokens_per_rank / plan.num_microbatches
        nbytes = micro_tokens * cfg.d_model * itemsize(cfg.dtype)
        # Adjacent stages are plane_size ranks apart in the world order.
        one = self.network.p2p_time(nbytes, 0, layout.plane_size)
        return 2.0 * plan.num_microbatches * one

    def pipeline_bubble_time(self, plan: ParallelPlan) -> float:
        """GPipe fill/drain idle time: ``(pp-1)/m`` of the stage compute.

        The classic bubble fraction ``(pp-1)/(m+pp-1)`` of the pipelined
        makespan equals ``(pp-1)/m`` of the useful per-stage compute, which
        is the form that composes additively with the other terms.
        """
        if plan.pp_size == 1:
            return 0.0
        stage_compute = self.dense_compute_time(plan) + self.expert_compute_time(plan)
        return (plan.pp_size - 1) / plan.num_microbatches * stage_compute

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def step_breakdown(self, plan: ParallelPlan) -> StepBreakdown:
        """All phase times for one synchronous training step."""
        plan.validate_against(self.config)
        if plan.num_nodes > self.machine.num_nodes:
            raise ConfigError(
                f"plan uses {plan.num_nodes} nodes but machine has "
                f"{self.machine.num_nodes}"
            )
        forward, backward = self._alltoall_times(plan)
        return StepBreakdown(
            dense_compute=self.dense_compute_time(plan),
            expert_compute=self.expert_compute_time(plan),
            alltoall=forward + backward,
            dense_allreduce=self.dense_allreduce_time(plan),
            expert_allreduce=self.expert_allreduce_time(plan),
            tp_allreduce=(
                self.tp_activation_allreduce_time(plan)
                + self.tp_grad_allreduce_time(plan)
            ),
            zero_allgather=self.zero_allgather_time(plan),
            pipeline_p2p=self.pipeline_p2p_time(plan),
            pipeline_bubble=self.pipeline_bubble_time(plan),
            alltoall_forward=forward,
        )

    def step_time(self, plan: ParallelPlan) -> float:
        """Seconds per training step.

        ``plan.overlap`` hides that fraction of the gradient-sync
        communication behind backward compute (the TP activation
        exchanges stay on the critical path and never overlap). With
        ``plan.overlap_chunks > 1`` the chunked dispatch pipeline also
        hides forward token alltoalls behind expert compute — all but the
        first dispatch and last combine (a ``(C-1)/C`` fraction of the
        forward share) can overlap, with one dispatch and one combine in
        flight per compute window; the backward exchanges are whole and
        stay exposed — and gradient sync is bucket-overlapped
        (``overlap`` -> 1).
        """
        return _exposed_step_time(self.step_breakdown(plan), plan)

    def tokens_per_second(self, plan: ParallelPlan) -> float:
        """Machine-wide training throughput."""
        return plan.global_tokens / self.step_time(plan)

    def achieved_flops(self, plan: ParallelPlan) -> float:
        """Sustained training FLOP/s (useful-work FLOPs / step time)."""
        from repro.perf.flops import step_flops

        return step_flops(self.config, plan.global_tokens, plan.seq_len) / self.step_time(plan)
