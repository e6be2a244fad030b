"""The Mixture-of-Experts feed-forward layer.

:meth:`MoELayer.forward` is the one MoE forward in the repo: route tokens
with a gate, build the expert-sorted dispatch plan (dropping capacity overflow),
run the *expert stage* (every expert in one
:func:`~repro.tensor.functional.expert_ffn` node), combine with
differentiable weights, and expose the auxiliary balance loss. The
expert-parallel layer (:class:`repro.parallel.ep.DistributedMoELayer`) is a
subclass that only swaps three private hooks — how experts are built, what
the group load is, and the expert stage (an alltoall exchange around one
``expert_ffn`` call per chunk of local experts) — so it produces exactly
these numerics (tested bit for bit).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.layers import MLP, Linear
from repro.models.module import Module
from repro.moe.balance import load_balance_loss
from repro.moe.dispatch import DispatchPlan, build_dispatch, expert_capacity
from repro.moe.gates import Gate, make_gate
from repro.tensor import Tensor, is_grad_enabled
from repro.tensor.functional import expert_ffn, gather_rows, scatter_rows
from repro.tensor.tensor import grad_mode

__all__ = ["MoELayer"]


class MoELayer(Module):
    """Sparsely-activated feed-forward layer with ``num_experts`` MLPs.

    Parameters
    ----------
    d_model / d_ff:
        Expert MLP dimensions.
    num_experts:
        Total experts in the layer.
    rng:
        RNG for parameter init and stochastic gates.
    gate:
        A :class:`~repro.moe.Gate` instance or strategy name
        ("topk", "noisy-topk", "balanced", "random").
    top_k:
        Experts per token (when ``gate`` is a name).
    capacity_factor:
        When set, enforce per-expert buffer capacity and drop overflow
        slots (Switch-style). ``None`` disables dropping.
    aux_weight:
        Coefficient of the balance auxiliary loss, applied when
        :attr:`last_aux_loss` is read.
    """

    recomputable = False

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        num_experts: int,
        rng: np.random.Generator,
        gate: Gate | str = "topk",
        top_k: int = 1,
        capacity_factor: float | None = None,
        aux_weight: float = 1e-2,
    ):
        super().__init__()
        if num_experts < 1:
            raise ConfigError(f"num_experts must be >= 1, got {num_experts}")
        self.d_model = d_model
        self.d_ff = d_ff
        self.num_experts = num_experts
        self.capacity_factor = capacity_factor
        self.aux_weight = aux_weight
        self._rng = rng
        self.router = Linear(d_model, num_experts, rng, bias=False)
        self.register_module_list("experts", self._build_experts())
        for expert in self.experts:
            for p in expert.parameters():
                p.is_expert = True
        self.gate: Gate = (
            gate if isinstance(gate, Gate) else make_gate(gate, num_experts, top_k)
        )
        #: What :attr:`last_aux_loss` is computed from until it is read:
        #: ``(probs, indices, grad mode)`` of the latest forward.
        self._aux_inputs: tuple | None = None
        self._aux_loss: Tensor | None = None
        #: Per-expert token counts of this layer's tokens, most recent forward.
        self.last_load: np.ndarray | None = None
        #: Per-expert counts over the whole expert group (``last_load``
        #: itself when the layer is its own group). A distributed layer's
        #: training forward leaves it ``None``; the step end fills it.
        self.last_global_load: np.ndarray | None = None
        #: Fraction of (token, slot) pairs dropped by capacity last forward.
        self.last_drop_fraction: float = 0.0
        #: Eval-only absolute per-expert slot bound over this layer's tokens
        #: (serving engines set this so one hot expert cannot stall a decode
        #: iteration; ``None`` disables it). With ``capacity_factor`` also
        #: set, the smaller of the two buffers applies.
        self.inference_capacity: int | None = None

    def forward(self, x: Tensor) -> Tensor:
        orig_shape = x.shape
        if x.ndim == 3:
            b, t, d = x.shape
            x = x.reshape(b * t, d)
        elif x.ndim != 2:
            raise ConfigError(
                f"{type(self).__name__} expects (N, D) or (B, T, D), got {x.shape}"
            )
        n, d = x.shape
        if d != self.d_model:
            raise ConfigError(f"expected last dim {self.d_model}, got {d}")

        logits = self.router(x)  # (N, E)
        gate_out = self.gate(logits, self._rng)
        self.last_load = gate_out.load
        self.last_global_load = self._group_load(gate_out.load)

        # One cap: the training buffer, the serving bound in eval, or the
        # smaller of the two.
        k = gate_out.indices.shape[1]
        caps = []
        if self.capacity_factor is not None:
            caps.append(expert_capacity(n, self.num_experts, k, self.capacity_factor))
        if not self.training and self.inference_capacity is not None:
            caps.append(self.inference_capacity)
        cap = min(caps) if caps else None
        plan = build_dispatch(gate_out.indices, self.num_experts, cap)
        self.last_drop_fraction = (
            1.0 - plan.num_slots / (n * k) if cap is not None and n * k else 0.0
        )
        xs = gather_rows(x, plan.token_idx)  # (M, D), expert-sorted
        ys = self._expert_stage(xs, plan)

        # Combine weights per dispatched slot, differentiable through the
        # router softmax.
        w = gate_out.combine_weights[plan.token_idx, plan.slot_idx]  # (M,)
        ys = ys * w.reshape(-1, 1)
        out = scatter_rows(ys, plan.token_idx, n)

        self._aux_inputs = (gate_out.probs, gate_out.indices, is_grad_enabled())
        self._aux_loss = None

        if len(orig_shape) == 3:
            out = out.reshape(*orig_shape)
        return out

    @property
    def last_aux_loss(self) -> Tensor | None:
        """Auxiliary loss of the most recent forward, computed on first read
        under that forward's grad mode (KV-cached decode never reads it).
        A head of the forward graph until the step's backward consumes it,
        a bare scalar afterwards."""
        if self._aux_inputs is not None:
            probs, indices, grad = self._aux_inputs
            self._aux_inputs = None
            with grad_mode(grad):
                aux = load_balance_loss(probs, indices, self.num_experts)
                self._aux_loss = aux * self.aux_weight
        return self._aux_loss

    # ------------------------------------------------------------------ #
    # The three steps an expert-parallel subclass replaces
    # ------------------------------------------------------------------ #

    def _build_experts(self) -> list[MLP]:
        """Every expert, drawn from the layer's rng in order after the router."""
        return [
            MLP(self.d_model, self.d_ff, self._rng)
            for _ in range(self.num_experts)
        ]

    def _group_load(self, load: np.ndarray) -> np.ndarray | None:
        """Per-expert load over the expert group (``None``: filled later, at
        the step end): here, this layer's own."""
        return load

    def _expert_stage(self, xs: Tensor, plan: DispatchPlan) -> Tensor:
        """Run each expert on its segment of the expert-sorted rows ``xs``;
        returns the outputs in ``xs`` order."""
        return expert_ffn(xs, plan.counts, self._expert_weights(0, self.num_experts))

    def _expert_weights(self, lo: int, hi: int) -> list[tuple[Tensor, Tensor, Tensor, Tensor]]:
        """``(w_in, b_in, w_out, b_out)`` of experts ``lo..hi-1`` of this
        layer's list, as :func:`~repro.tensor.functional.expert_ffn` takes them."""
        return [
            (m.fc_in.weight, m.fc_in.bias, m.fc_out.weight, m.fc_out.bias)
            for m in self.experts[lo:hi]
        ]
