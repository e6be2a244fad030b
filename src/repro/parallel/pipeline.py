"""Pipeline parallelism (GPipe-style) over the simulated MPI.

Layers are split into contiguous *stages*, one per rank of a pipe
communicator; a global batch is split into M microbatches that stream
through the stages (all forwards, then all backwards), with activations
travelling forward and activation-gradients backward via point-to-point
messages. The pipeline *bubble* — stages idle while the pipe fills and
drains — costs a fraction ``(S-1)/(M+S-1)`` of the step, which is the
quantity the T5 ablation sweeps.

BaGuaLu itself runs MoDa (data x expert); pipeline parallelism is the
natural third axis (Megatron-style) and the paper-adjacent extension this
module contributes. Numerics are exact: gradients equal the single-process
model's (equivalence-tested), because stage boundaries are plain
activation tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.models.configs import ModelConfig
from repro.models.module import Module
from repro.models.transformer import MoELanguageModel, _aux_loss_of
from repro.simmpi import Comm
from repro.tensor import Tensor, cross_entropy
from repro.utils.mathx import balanced_bounds

__all__ = ["PipelineStage", "GPipeRunner", "pipeline_bubble_fraction", "stage_bounds"]


def pipeline_bubble_fraction(num_stages: int, num_microbatches: int) -> float:
    """Idle fraction of a GPipe schedule: (S-1) / (M + S - 1)."""
    if num_stages < 1 or num_microbatches < 1:
        raise ConfigError("stages and microbatches must be >= 1")
    return (num_stages - 1) / (num_microbatches + num_stages - 1)


def stage_bounds(n_layers: int, num_stages: int, stage: int) -> tuple[int, int]:
    """Contiguous, balanced [lo, hi) block range of ``stage``."""
    if num_stages < 1 or not 0 <= stage < num_stages:
        raise ConfigError(f"invalid stage {stage} of {num_stages}")
    if n_layers < num_stages:
        raise ConfigError(
            f"cannot split {n_layers} layers into {num_stages} stages"
        )
    return balanced_bounds(n_layers, num_stages, stage)


class PipelineStage(Module):
    """One rank's slice of an :class:`MoELanguageModel`.

    Stage 0 owns the embeddings; the last stage owns the final LayerNorm
    and LM head; every stage owns a contiguous block range. Because model
    components are seeded independently (see
    :class:`~repro.models.MoELanguageModel`), a stage's weights are
    *identical* to the corresponding slice of the full single-process
    model built with the same seed.
    """

    def __init__(
        self,
        config: ModelConfig,
        num_stages: int,
        stage: int,
        seed: int = 0,
        moe_factory=None,
    ):
        super().__init__()
        self.config = config
        self.num_stages = num_stages
        self.stage = stage
        self.lo, self.hi = stage_bounds(config.n_layers, num_stages, stage)
        # Build the full model structure, then keep only the local pieces.
        # (Component-wise seeding makes the kept pieces bit-identical to a
        # full build; the discarded ones are freed immediately.)
        # ``moe_factory`` flows through to MoELanguageModel so the stage's
        # MoE layers can be expert-parallel (3D parallelism).
        full = MoELanguageModel(config, seed=seed, moe_factory=moe_factory)
        self.is_first = stage == 0
        self.is_last = stage == num_stages - 1
        if self.is_first:
            self.tok_emb = full.tok_emb
            self.pos_emb = full.pos_emb
        self.register_module_list("blocks", full.blocks[self.lo: self.hi])
        if self.is_last:
            self.ln_f = full.ln_f
            self.lm_head = full.lm_head

    def embed(self, tokens: np.ndarray) -> Tensor:
        if not self.is_first:
            raise ConfigError("only stage 0 embeds tokens")
        tokens = np.asarray(tokens)
        pos = np.arange(tokens.shape[1])
        return self.tok_emb(tokens) + self.pos_emb(pos)

    def forward(self, x: Tensor) -> Tensor:
        """Run the local blocks (plus final LN/head on the last stage)."""
        for block in self.blocks:
            x = block(x)
        if self.is_last:
            x = self.lm_head(self.ln_f(x))
        return x

    def aux_loss(self) -> Tensor | None:
        """Sum of this stage's auxiliary losses from the most recent forward."""
        return _aux_loss_of(self.blocks)


@dataclass
class _MicrobatchState:
    input_leaf: Tensor | None  # None on stage 0
    output: Tensor  # activation sent onward (logits on the last stage)
    #: Scalar to backprop on this stage: CE(+aux) on the last stage, the
    #: stage-local auxiliary loss elsewhere (None when no MoE aux).
    back_loss: Tensor | None = None
    #: Reported contributions (plain floats).
    ce_value: float = 0.0
    aux_value: float = 0.0


class GPipeRunner:
    """Executes GPipe training steps for one pipeline rank.

    All ranks of ``pipe_comm`` call :meth:`train_step` with the same
    ``tokens``/``targets`` (only stage 0 reads tokens, only the last stage
    reads targets — passing both everywhere keeps the API symmetric).
    """

    #: message tags
    _FWD = 101
    _BWD = 102

    def __init__(
        self,
        config: ModelConfig,
        pipe_comm: Comm,
        num_microbatches: int,
        seed: int = 0,
        moe_factory=None,
    ):
        if num_microbatches < 1:
            raise ConfigError("num_microbatches must be >= 1")
        self.config = config
        self.comm = pipe_comm
        self.num_microbatches = num_microbatches
        self.stage = PipelineStage(
            config, pipe_comm.size, pipe_comm.rank, seed=seed, moe_factory=moe_factory
        )

    @property
    def is_first(self) -> bool:
        return self.stage.is_first

    @property
    def is_last(self) -> bool:
        return self.stage.is_last

    def _split(self, arr: np.ndarray) -> list[np.ndarray]:
        b = arr.shape[0]
        m = self.num_microbatches
        if b % m != 0:
            raise ConfigError(
                f"batch size {b} must be divisible by num_microbatches={m}"
            )
        size = b // m
        return [arr[i * size: (i + 1) * size] for i in range(m)]

    def train_step(self, tokens: np.ndarray, targets: np.ndarray) -> float:
        """One GPipe step: returns the mean loss (identical on all stages).

        Gradients accumulate into the stage's parameters; the caller owns
        ``zero_grad`` and the optimizer step (and any data-parallel
        gradient sync around this call).
        """
        comm = self.comm
        rank = comm.rank
        micro_tokens = self._split(np.asarray(tokens))
        micro_targets = self._split(np.asarray(targets))
        states: list[_MicrobatchState] = []

        # ---------------- forward wave ---------------- #
        for m in range(self.num_microbatches):
            if self.is_first:
                x = self.stage.embed(micro_tokens[m])
                leaf = None
            else:
                data = comm.recv(source=rank - 1, tag=self._FWD)
                leaf = Tensor(data, requires_grad=True, dtype=self.config.dtype)
                x = leaf
            out = self.stage(x)
            aux = self.stage.aux_loss()  # this microbatch's MoE aux (or None)
            st = _MicrobatchState(input_leaf=leaf, output=out)
            if aux is not None:
                st.aux_value = float(aux.item())
            if self.is_last:
                b, t, v = out.shape
                ce = cross_entropy(out.reshape(b * t, v), micro_targets[m].reshape(-1))
                st.ce_value = float(ce.item())
                st.back_loss = ce + aux if aux is not None else ce
            else:
                comm.send(out.data, dest=rank + 1, tag=self._FWD)
                st.back_loss = aux  # stage-local term only
            states.append(st)

        # ---------------- backward wave ---------------- #
        inv_m = 1.0 / self.num_microbatches
        for m in reversed(range(self.num_microbatches)):
            st = states[m]
            if self.is_last:
                st.back_loss.backward(np.asarray(inv_m, dtype=st.back_loss.data.dtype))
            else:
                grad = comm.recv(source=rank + 1, tag=self._BWD)
                # Two backwards share this microbatch's graph (the aux loss
                # hangs off the routers below ``output``): the first keeps it.
                st.output.backward(grad, retain_graph=st.back_loss is not None)
                if st.back_loss is not None:
                    st.back_loss.backward(
                        np.asarray(inv_m, dtype=st.back_loss.data.dtype)
                    )
            if not self.is_first:
                comm.send(st.input_leaf.grad, dest=rank - 1, tag=self._BWD)

        # Every stage contributes its own aux; the last adds the CE. The
        # allreduce also reports an identical mean loss everywhere.
        local = sum(s.aux_value for s in states)
        if self.is_last:
            local += sum(s.ce_value for s in states)
        return float(comm.allreduce(local) * inv_m)
