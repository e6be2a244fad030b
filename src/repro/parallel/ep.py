"""Expert parallelism: the distributed Mixture-of-Experts layer.

Experts of each MoE layer are sharded across an expert-parallel (EP)
communicator; tokens travel to their experts by alltoall and return by the
transposed alltoall (both differentiable, see
:mod:`repro.parallel.collective_ops`). This reproduces the FastMoE-style
data path BaGuaLu builds on, with the alltoall algorithm (flat vs
hierarchical) exposed as the knob experiment F3 measures.

Numerics match the single-process :class:`~repro.models.MoELayer` exactly
for deterministic gates (verified by equivalence tests): only the *place*
where each expert's matmuls run changes.

Dispatch -> experts -> combine is one method for any number of expert
chunks (:meth:`DistributedMoELayer._dispatch`); the blocking exchange is
its one-chunk case, and more chunks only change the virtual timeline.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.models.configs import ModelConfig
from repro.models.layers import MLP, Linear
from repro.models.module import Module
from repro.moe.balance import load_balance_loss, router_z_loss
from repro.moe.capacity import apply_capacity
from repro.moe.dispatch import build_dispatch, experts_of_rank, inference_keep_mask
from repro.moe.gates import Gate, make_gate
from repro.parallel.collective_ops import PendingAlltoallRows, place_rows
from repro.simmpi import Comm
from repro.tensor import Tensor
from repro.tensor import ops as T
from repro.tensor.functional import gather_rows, scatter_rows
from repro.utils.seeding import derive_seed

__all__ = ["DistributedMoELayer", "ep_moe_factory"]


class DistributedMoELayer(Module):
    """MoE feed-forward layer sharded over an EP communicator.

    Parameters
    ----------
    d_model / d_ff / num_experts:
        Layer dimensions; ``num_experts`` must be divisible by
        ``ep_comm.size``.
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
        Split dispatch/combine into this many chunks of local experts and
        pipeline chunk *k*'s combine (and chunk *k+1*'s dispatch) against
        chunk *k*'s expert matmuls via nonblocking alltoalls. Output is
        bit-identical for every count; only the virtual timeline changes.
        Clamped to the number of local experts; 1 = one blocking exchange
        each way.
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
        z_weight: float = 0.0,
        alltoall_algorithm: str | None = None,
        init_std: float = 0.02,
        dtype: str = "fp32",
        compute_hook: Callable[[int], None] | None = None,
        overlap_chunks: int = 1,
    ):
        super().__init__()
        if num_experts % ep_comm.size != 0:
            raise ConfigError(
                f"ep size {ep_comm.size} must divide num_experts={num_experts}"
            )
        if overlap_chunks < 1:
            raise ConfigError(f"overlap_chunks must be >= 1, got {overlap_chunks}")
        self.d_model = d_model
        self.d_ff = d_ff
        self.num_experts = num_experts
        self.ep_comm = ep_comm
        self.num_local_experts = num_experts // ep_comm.size
        self.global_expert_ids = experts_of_rank(ep_comm.rank, num_experts, ep_comm.size)
        self.capacity_factor = capacity_factor
        self.aux_weight = aux_weight
        self.z_weight = z_weight
        self.alltoall_algorithm = alltoall_algorithm
        self.compute_hook = compute_hook
        self.overlap_chunks = overlap_chunks
        self._rng = shared_rng

        self.router = Linear(
            d_model, num_experts, shared_rng, bias=False, init_std=init_std, dtype=dtype
        )
        local = []
        for gid in self.global_expert_ids:
            erng = np.random.default_rng(derive_seed(seed, "expert", layer_id, gid))
            local.append(MLP(d_model, d_ff, erng, init_std=init_std, dtype=dtype))
        self.register_module_list("experts", local)
        for expert in local:
            for p in expert.parameters():
                p.is_expert = True

        self.gate: Gate = (
            gate if isinstance(gate, Gate) else make_gate(gate, num_experts, top_k)
        )
        #: As on :class:`~repro.models.MoELayer`: a graph head until the
        #: step's backward, a bare scalar after it.
        self.last_aux_loss: Tensor | None = None
        #: Local routing load over *global* experts (this rank's tokens).
        self.last_load: np.ndarray | None = None
        #: Group-wide load (allreduced over the EP group).
        self.last_global_load: np.ndarray | None = None
        self.last_drop_fraction: float = 0.0
        #: Rows this rank's experts processed in the last forward.
        self.last_local_rows: int = 0
        #: Eval-only absolute per-expert slot bound over *this rank's*
        #: tokens (serving engines set this; ``None`` disables it).
        self.inference_capacity: int | None = None

    # ------------------------------------------------------------------ #

    def forward(self, x: Tensor) -> Tensor:
        orig_shape = x.shape
        if x.ndim == 3:
            b, t, d = x.shape
            x = x.reshape(b * t, d)
        elif x.ndim != 2:
            raise ConfigError(
                f"DistributedMoELayer expects (N, D) or (B, T, D), got {x.shape}"
            )
        n, d = x.shape
        comm = self.ep_comm
        p = comm.size
        per_rank = self.num_local_experts

        # 1. Route locally.
        logits = self.router(x)
        gate_out = self.gate(logits, self._rng)
        self.last_load = gate_out.load
        self.last_global_load = comm.allreduce(gate_out.load)

        if self.capacity_factor is not None:
            cap = apply_capacity(gate_out.indices, self.num_experts, self.capacity_factor)
            keep = cap.keep_mask
            self.last_drop_fraction = cap.drop_fraction
        else:
            keep = None
            self.last_drop_fraction = 0.0
        if not self.training and self.inference_capacity is not None:
            icap = inference_keep_mask(
                gate_out.indices, self.num_experts, self.inference_capacity
            )
            keep = icap if keep is None else keep & icap
            self.last_drop_fraction = float(1.0 - keep.mean())

        plan = build_dispatch(gate_out.indices, self.num_experts, keep)
        xs = gather_rows(x, plan.token_idx)  # (M, D), global-expert-sorted

        # 2. Exchange metadata: how many rows for each of the destination's
        #    local experts am I sending?
        counts_by_dst = [
            plan.counts[r * per_rank: (r + 1) * per_rank].copy() for r in range(p)
        ]
        recv_expert_counts = comm.alltoall(counts_by_dst)  # per src: (per_rank,)

        # 3-6. Dispatch -> local experts -> combine, in chunks of experts.
        back_rows = self._dispatch(
            xs, plan, recv_expert_counts, min(self.overlap_chunks, per_rank)
        )

        # 7. Combine at the source with differentiable gate weights.
        w = gate_out.combine_weights[plan.token_idx, plan.slot_idx]
        combined = back_rows * w.reshape(-1, 1)
        out = scatter_rows(combined, plan.token_idx, n)

        aux = load_balance_loss(gate_out.probs, gate_out.indices, self.num_experts)
        aux = aux * self.aux_weight
        if self.z_weight > 0:
            aux = aux + router_z_loss(logits) * self.z_weight
        self.last_aux_loss = aux

        if len(orig_shape) == 3:
            out = out.reshape(*orig_shape)
        return out

    def _dispatch(
        self,
        xs: Tensor,
        plan,
        recv_expert_counts: list[np.ndarray],
        chunks: int,
    ) -> Tensor:
        """Token alltoall -> local experts -> alltoall home, over ``chunks``
        (>= 1) chunks of local experts; returns the rows in ``xs`` order.

        Chunk ``c`` covers local experts ``[edges[c], edges[c+1])`` on
        every rank. Each expert sees its full canonical row block in
        canonical (expert, source) order, and the returned chunks are
        reassembled into ``xs`` order by pure placement
        (:func:`place_rows`) before the single combine-weight multiply —
        so the output is bit-identical for every chunk count. With more
        than one chunk the exchanges are nonblocking: chunk ``c``'s expert
        matmuls (charged through ``compute_hook``) overlap chunk ``c+1``'s
        dispatch and chunk ``c-1``'s combine on the virtual clock. One
        chunk is the whole of ``xs``, exchanged by the blocking alltoall —
        complete as issued, no rows gathered or placed.
        """
        comm = self.ep_comm
        p = comm.size
        per_rank = self.num_local_experts
        algorithm = self.alltoall_algorithm
        nonblocking = chunks > 1
        edges = [(per_rank * c) // chunks for c in range(chunks + 1)]
        goff = plan.offsets.tolist()

        # Each chunk's (dest-major) row slices of the expert-sorted xs.
        bounds = [
            [(goff[r * per_rank + edges[c]], goff[r * per_rank + edges[c + 1]])
             for r in range(p)]
            for c in range(chunks)
        ]
        send_counts = [[hi - lo for lo, hi in chunk] for chunk in bounds]
        idx_lists = [
            np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in chunk])
            for chunk in bounds
        ] if nonblocking else None

        def dispatch(c: int) -> PendingAlltoallRows:
            rows = gather_rows(xs, idx_lists[c]) if nonblocking else xs
            return PendingAlltoallRows(rows, send_counts[c], comm, algorithm, nonblocking)

        pending = [dispatch(0)]
        combines = []
        local_rows = 0
        for c in range(chunks):
            if c + 1 < chunks:
                pending.append(dispatch(c + 1))
            recv_rows, recv_counts = pending[c].wait()

            # Regroup received rows by local expert (they arrive blocked
            # by source, sorted by expert within each block).
            lo_e, hi_e = edges[c], edges[c + 1]
            expert_of_row = np.concatenate(
                [np.repeat(np.arange(lo_e, hi_e), src[lo_e:hi_e])
                 for src in recv_expert_counts]
            )
            order = np.argsort(expert_of_row, kind="stable")
            xr = gather_rows(recv_rows, order)
            rows_per_expert = np.bincount(expert_of_row, minlength=hi_e)[lo_e:]
            local_rows += len(expert_of_row)
            if self.compute_hook is not None:
                self.compute_hook(len(expert_of_row))

            # Run local experts on contiguous segments.
            outs = []
            lo = 0
            for e, rows in zip(range(lo_e, hi_e), rows_per_expert.tolist()):
                hi = lo + rows
                if hi > lo:
                    outs.append(self.experts[e](xr[lo:hi]))
                lo = hi
            ys_sorted = T.concat(outs, axis=0) if outs else xr * 0.0

            # Undo the regrouping and send results home.
            ys = gather_rows(ys_sorted, np.argsort(order, kind="stable"))
            combines.append(
                PendingAlltoallRows(ys, recv_counts, comm, algorithm, nonblocking)
            )

        self.last_local_rows = local_rows
        back_chunks = []
        for combine, counts in zip(combines, send_counts):
            back_c, back_counts = combine.wait()
            assert back_counts == counts, "alltoall transpose mismatch"
            back_chunks.append(back_c)
        if not nonblocking:
            return back_chunks[0]
        return place_rows(back_chunks, idx_lists, int(xs.shape[0]))

    @property
    def flops_per_token(self) -> int:
        """Forward FLOPs per token: router + top_k expert MLPs."""
        router = 2 * self.d_model * self.num_experts
        expert = self.experts[0].flops_per_token if self.experts else 0
        return router + self.gate.top_k * expert


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
    if config.num_experts % ep_comm.size != 0:
        raise ConfigError(
            f"ep_size={ep_comm.size} must divide num_experts={config.num_experts}"
        )

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
            z_weight=config.z_weight,
            alltoall_algorithm=alltoall_algorithm,
            dtype=config.dtype,
            compute_hook=compute_hook,
            overlap_chunks=overlap_chunks,
        )

    return moe_factory
