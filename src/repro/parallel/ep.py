"""Expert parallelism: the distributed Mixture-of-Experts layer.

Experts of each MoE layer are sharded across an expert-parallel (EP)
communicator; tokens travel to their experts by alltoall and return by the
transposed alltoall (both differentiable, see
:mod:`repro.parallel.collective_ops`). This reproduces the FastMoE-style
data path BaGuaLu builds on, with the alltoall algorithm (flat vs
hierarchical) exposed as the knob experiment F3 measures.

:class:`DistributedMoELayer` is a :class:`~repro.models.MoELayer` whose
forward is inherited unchanged (route -> plan -> expert stage -> combine ->
aux); it replaces only three hooks: its experts are this rank's shard, each
seeded by global id; its group load is allreduced over the EP group (per
forward in eval, once per step for every layer in training:
:func:`fill_group_loads`); and its expert stage is the counts alltoall
followed by :meth:`_dispatch`. So
numerics match the local layer exactly for deterministic gates (verified by
equivalence tests): only the *place* where each expert's matmuls run
changes.

Dispatch -> experts -> combine is one method for any number of expert
chunks (:meth:`DistributedMoELayer._dispatch`); the blocking exchange is
its one-chunk case, and more chunks only change the virtual timeline: the
forward is pipelined per chunk, the backward is one exchange per
direction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.models.configs import ModelConfig
from repro.models.layers import MLP
from repro.models.moe_layer import MoELayer
from repro.moe.dispatch import DispatchPlan, experts_of_rank
from repro.moe.gates import Gate
from repro.parallel.collective_ops import PendingAlltoallRows
from repro.simmpi import Comm
from repro.tensor import Tensor
from repro.tensor.functional import expert_ffn, gather_rows
from repro.utils.seeding import derive_seed

__all__ = ["DistributedMoELayer", "ep_moe_factory"]


class DistributedMoELayer(MoELayer):
    """MoE feed-forward layer sharded over an EP communicator.

    Parameters not listed are those of :class:`~repro.models.MoELayer`.

    Parameters
    ----------
    num_experts:
        Total experts; ``ep_comm.size`` must divide it.
    ep_comm:
        The expert-parallel communicator (each member holds
        ``num_experts / size`` experts, blocked placement).
    shared_rng:
        RNG consumed identically on every EP rank (router init, gate
        noise) — keeps replicated parameters bit-identical.
    seed / layer_id:
        Expert parameters are seeded per *global* expert id from
        ``derive_seed(seed, "expert", layer_id, gid)``, so the set of
        expert weights is independent of the EP layout.
    alltoall_algorithm:
        Timing-model algorithm for the token exchange
        ("flat" / "hierarchical" / None = policy default).
    compute_hook:
        Optional callable ``(num_rows) -> None`` invoked with the number of
        expert rows processed locally; runners use it to advance the
        virtual clock by modelled expert-compute time. Called once per
        chunk (so the advanced compute can overlap the in-flight
        exchanges of the other chunks).
    overlap_chunks:
        Split the forward dispatch/combine into this many chunks of local
        experts and pipeline chunk *k*'s combine (and chunk *k+1*'s
        dispatch) against chunk *k*'s expert matmuls via nonblocking
        alltoalls; the backward stays one blocking exchange per direction.
        Output and gradients are bit-identical for every count; only the
        virtual timeline changes. Clamped to the number of local experts;
        1 = one blocking exchange each way.
    """

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        num_experts: int,
        ep_comm: Comm,
        shared_rng: np.random.Generator,
        seed: int = 0,
        layer_id: int = 0,
        gate: Gate | str = "topk",
        top_k: int = 1,
        capacity_factor: float | None = None,
        aux_weight: float = 1e-2,
        alltoall_algorithm: str | None = None,
        dtype: str = "fp32",
        compute_hook: Callable[[int], None] | None = None,
        overlap_chunks: int = 1,
    ):
        if overlap_chunks < 1:
            raise ConfigError(f"overlap_chunks must be >= 1, got {overlap_chunks}")
        # Plain attributes set before MoELayer.__init__, which calls
        # _build_experts: this rank's shard needs them.
        self.ep_comm = ep_comm
        self.global_expert_ids = experts_of_rank(ep_comm.rank, num_experts, ep_comm.size)
        self.num_local_experts = len(self.global_expert_ids)
        self._expert_seed = (seed, layer_id)
        self.alltoall_algorithm = alltoall_algorithm
        self.compute_hook = compute_hook
        self.overlap_chunks = overlap_chunks
        #: Rows this rank's experts processed in the last forward.
        self.last_local_rows: int = 0
        super().__init__(
            d_model, d_ff, num_experts, shared_rng, gate=gate, top_k=top_k,
            capacity_factor=capacity_factor, aux_weight=aux_weight, dtype=dtype,
        )

    def _build_experts(self, dtype: str) -> list[MLP]:
        """This rank's shard, each expert from its own global-id seed."""
        seed, layer_id = self._expert_seed
        return [
            MLP(self.d_model, self.d_ff,
                np.random.default_rng(derive_seed(seed, "expert", layer_id, gid)),
                dtype=dtype)
            for gid in self.global_expert_ids
        ]

    def _group_load(self, load: np.ndarray) -> np.ndarray | None:
        """Per-expert load allreduced over the EP group — in eval only.

        A training forward leaves it ``None``: the step end fills every
        layer's ``last_global_load`` at once (:func:`fill_group_loads`), so
        a step pays one load allreduce instead of one per MoE forward.
        """
        return None if self.training else self.ep_comm.allreduce(load)

    def _expert_stage(self, xs: Tensor, plan: DispatchPlan) -> Tensor:
        """Tell each destination how many rows it gets per local expert,
        then dispatch -> local experts -> combine in chunks of experts."""
        p = self.ep_comm.size
        per_rank = self.num_local_experts
        counts_by_dst = [
            plan.counts[r * per_rank: (r + 1) * per_rank].copy() for r in range(p)
        ]
        recv_expert_counts = self.ep_comm.alltoall(counts_by_dst)  # per src: (per_rank,)
        return self._dispatch(
            xs, plan, recv_expert_counts, min(self.overlap_chunks, per_rank)
        )

    def _dispatch(
        self,
        xs: Tensor,
        plan: DispatchPlan,
        recv_expert_counts: list[np.ndarray],
        chunks: int,
    ) -> Tensor:
        """Token alltoall -> local experts -> alltoall home, over ``chunks``
        (>= 1) chunks of local experts; returns the rows in ``xs`` order.

        Chunk ``c`` covers local experts ``[edges[c], edges[c+1])`` on
        every rank, so its rows for each destination are one contiguous
        slice of the expert-sorted ``xs``. Each expert sees its full
        canonical row block in canonical (expert, source) order, and the
        combine places every chunk's rows at their home positions before
        the single combine-weight multiply — so the output and every
        gradient are bit-identical for every chunk count. The forward is
        pipelined per chunk: with more than one chunk the exchanges are
        nonblocking, and chunk ``c``'s expert matmuls (charged through
        ``compute_hook``) overlap chunk ``c+1``'s dispatch and chunk
        ``c-1``'s combine on the virtual clock. The backward is one
        blocking exchange per direction (:class:`PendingAlltoallRows`).
        """
        comm = self.ep_comm
        p = comm.size
        per_rank = self.num_local_experts
        edges = [(per_rank * c) // chunks for c in range(chunks + 1)]
        goff = plan.offsets.tolist()
        send_counts = [
            [goff[r * per_rank + edges[c + 1]] - goff[r * per_rank + edges[c]]
             for r in range(p)]
            for c in range(chunks)
        ]
        by_source = [src.tolist() for src in recv_expert_counts]
        recv_counts = [
            [sum(src[edges[c]:edges[c + 1]]) for src in by_source] for c in range(chunks)
        ]
        exchange = (comm, self.alltoall_algorithm, chunks > 1)
        dispatch = PendingAlltoallRows(send_counts, recv_counts, *exchange)
        combine = PendingAlltoallRows(recv_counts, send_counts, *exchange)

        dispatch.issue(0, xs)
        local_rows = 0
        for c in range(chunks):
            if c + 1 < chunks:
                dispatch.issue(c + 1, xs)
            recv = dispatch.wait(c)

            # Regroup chunk c's received rows by local expert (they arrive
            # blocked by source, sorted by expert within each block).
            lo_e, hi_e = edges[c], edges[c + 1]
            expert_of_row = np.concatenate(
                [np.repeat(np.arange(lo_e, hi_e), src[lo_e:hi_e])
                 for src in recv_expert_counts]
            )
            order = np.argsort(expert_of_row, kind="stable")
            xr = gather_rows(recv, dispatch.rows(c)[order])
            rows_per_expert = np.bincount(expert_of_row, minlength=hi_e)[lo_e:]
            local_rows += len(expert_of_row)
            if self.compute_hook is not None:
                self.compute_hook(len(expert_of_row))

            ys_sorted = expert_ffn(xr, rows_per_expert, self._expert_weights(lo_e, hi_e))

            # Undo the regrouping and send results home.
            combine.issue(c, gather_rows(ys_sorted, np.argsort(order, kind="stable")))

        self.last_local_rows = local_rows
        for c in range(chunks):
            out = combine.wait(c)
        return out


def fill_group_loads(layers: list[MoELayer]) -> None:
    """Fill ``last_global_load`` of every layer whose training forward left
    it ``None`` from ONE allreduce of their concatenated ``last_load``s.

    Collective over the layers' EP group: every member holds the same
    layers in the same mode, so all of them call it or none does. Integer
    counts, so each layer's slice equals its own per-layer allreduce.
    """
    pending = [m for m in layers if m.last_global_load is None]
    if not pending:
        return
    total = pending[0].ep_comm.allreduce(np.concatenate([m.last_load for m in pending]))
    for m, load in zip(pending, np.split(total, len(pending))):
        m.last_global_load = load


def ep_moe_factory(
    config: ModelConfig,
    ep_comm: Comm,
    seed: int = 0,
    alltoall_algorithm: str | None = None,
    compute_hook: Callable[[int], None] | None = None,
    overlap_chunks: int = 1,
) -> Callable[[int, np.random.Generator], DistributedMoELayer]:
    """The ``moe_factory`` that shards ``config``'s MoE blocks over ``ep_comm``.

    The one place a model config becomes :class:`DistributedMoELayer`
    arguments: every EP model builder (training planes, pipeline stages,
    serving) hands the result to :class:`~repro.models.MoELanguageModel` /
    :class:`~repro.parallel.pipeline.GPipeRunner`, so all of them draw the
    same weight streams for the same ``seed``.
    """

    def moe_factory(layer_idx: int, rng: np.random.Generator) -> DistributedMoELayer:
        return DistributedMoELayer(
            config.d_model,
            config.d_ff,
            config.num_experts,
            ep_comm,
            shared_rng=rng,
            seed=seed,
            layer_id=layer_idx,
            gate=config.gate,
            top_k=config.top_k,
            capacity_factor=config.capacity_factor,
            aux_weight=config.aux_weight,
            alltoall_algorithm=alltoall_algorithm,
            dtype=config.dtype,
            compute_hook=compute_hook,
            overlap_chunks=overlap_chunks,
        )

    return moe_factory
