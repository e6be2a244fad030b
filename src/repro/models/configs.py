"""Model configurations, including the brain-scale presets.

The paper's headline models (1.93 T, 14.5 T, 174 T parameters) cannot be
instantiated in memory; their configs exist for the analytic performance
model (:mod:`repro.perf`) and the config table (experiment T1). Exact layer
dimensions were not published in a form available to this reproduction, so
the presets are *reconstructed*: GPT-style backbone dimensions with the
expert count chosen to hit the headline parameter totals (the quantity that
drives every scaling result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.moe.gates import make_gate
from repro.tensor.dtype import DTYPES

__all__ = [
    "ModelConfig",
    "tiny_config",
    "small_config",
    "bagualu_1_93t",
    "bagualu_14_5t",
    "bagualu_174t",
    "BRAIN_SCALE_CONFIGS",
]


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of an MoE transformer language model."""

    vocab_size: int = 32000
    max_seq_len: int = 1024
    d_model: int = 1024
    n_layers: int = 24
    n_heads: int = 16
    d_ff: int = 4096
    num_experts: int = 32
    top_k: int = 1
    #: Every ``moe_every``-th block uses an MoE FFN (1 = all blocks).
    moe_every: int = 1
    gate: str = "topk"
    capacity_factor: float | None = None
    aux_weight: float = 1e-2
    #: Recompute block activations in backward (activation checkpointing).
    recompute: bool = False
    dtype: str = "fp32"
    name: str = "custom"

    def __post_init__(self) -> None:
        for name in ("vocab_size", "max_seq_len", "d_model", "n_layers", "n_heads",
                     "d_ff", "num_experts"):
            if not getattr(self, name) >= 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.capacity_factor is not None and not 0 < self.capacity_factor < math.inf:
            raise ConfigError(
                f"capacity_factor must be None or finite and > 0, got {self.capacity_factor}"
            )
        if not 0 <= self.aux_weight < math.inf:
            raise ConfigError(f"aux_weight must be finite and >= 0, got {self.aux_weight}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if not self.moe_every >= 1:
            raise ConfigError(f"moe_every must be >= 1, got {self.moe_every}")
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigError(
                f"top_k={self.top_k} must be in [1, num_experts={self.num_experts}]"
            )
        # Refused here, not inside a rank thread (where a supervisor would
        # retry it as a fault).
        make_gate(self.gate, self.num_experts, self.top_k)
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(DTYPES)}, got {self.dtype!r}")

    # ------------------------------------------------------------------ #
    # Analytic parameter counts (exact for the models we can instantiate;
    # they're validated against Module.num_parameters in tests)
    # ------------------------------------------------------------------ #

    @property
    def num_moe_layers(self) -> int:
        return len([i for i in range(self.n_layers) if (i + 1) % self.moe_every == 0])

    @property
    def num_dense_ffn_layers(self) -> int:
        return self.n_layers - self.num_moe_layers

    @property
    def attention_params(self) -> int:
        # qkv (D x 3D + 3D) + proj (D x D + D)
        per_layer = self.d_model * 3 * self.d_model + 3 * self.d_model
        per_layer += self.d_model * self.d_model + self.d_model
        return self.n_layers * per_layer

    @property
    def ffn_expert_params(self) -> int:
        """Parameters of a single expert MLP."""
        return (
            self.d_model * self.d_ff + self.d_ff
            + self.d_ff * self.d_model + self.d_model
        )

    @property
    def moe_params(self) -> int:
        """All expert + router parameters across MoE layers."""
        router = self.d_model * self.num_experts
        return self.num_moe_layers * (self.num_experts * self.ffn_expert_params + router)

    @property
    def dense_ffn_params(self) -> int:
        return self.num_dense_ffn_layers * self.ffn_expert_params

    @property
    def layernorm_params(self) -> int:
        # Two LN per block + final LN, each with weight + bias.
        return (2 * self.n_layers + 1) * 2 * self.d_model

    @property
    def embedding_params(self) -> int:
        # Token embedding + learned positions + untied LM head.
        return (
            self.vocab_size * self.d_model
            + self.max_seq_len * self.d_model
            + self.d_model * self.vocab_size + self.vocab_size
        )

    @property
    def total_params(self) -> int:
        """Total parameter count (dense + experts)."""
        return (
            self.attention_params
            + self.moe_params
            + self.dense_ffn_params
            + self.layernorm_params
            + self.embedding_params
        )

    @property
    def replicated_params(self) -> int:
        """Parameters every rank holds whole: dense blocks plus routers."""
        return (
            self.attention_params
            + self.dense_ffn_params
            + self.layernorm_params
            + self.embedding_params
            + self.num_moe_layers * self.d_model * self.num_experts
        )

    @property
    def active_params_per_token(self) -> int:
        """Parameters touched by one token (dense + top_k experts)."""
        active_experts = self.num_moe_layers * self.top_k * self.ffn_expert_params
        return self.replicated_params + active_experts

    def scaled(self, **changes) -> "ModelConfig":
        """Copy with fields replaced."""
        return replace(self, **changes)


def tiny_config(**overrides) -> ModelConfig:
    """Laptop/test scale: trains in seconds on CPU."""
    base = ModelConfig(
        vocab_size=128,
        max_seq_len=32,
        d_model=32,
        n_layers=2,
        n_heads=4,
        d_ff=64,
        num_experts=4,
        top_k=1,
        name="tiny",
    )
    return base.scaled(**overrides) if overrides else base


def small_config(**overrides) -> ModelConfig:
    """A few-minute CPU config for convergence experiments."""
    base = ModelConfig(
        vocab_size=512,
        max_seq_len=64,
        d_model=64,
        n_layers=4,
        n_heads=4,
        d_ff=256,
        num_experts=8,
        top_k=2,
        name="small",
    )
    return base.scaled(**overrides) if overrides else base


def _brain_scale(name: str, d_model: int, d_ff: int, n_layers: int, n_heads: int, num_experts: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=151_851,  # CPM-style multimodal vocabulary size class
        max_seq_len=2048,
        d_model=d_model,
        n_layers=n_layers,
        n_heads=n_heads,
        d_ff=d_ff,
        num_experts=num_experts,
        top_k=1,
        moe_every=1,
        gate="balanced",
        dtype="fp16",
        name=name,
    )


def bagualu_1_93t() -> ModelConfig:
    """~1.93 T parameters (reconstructed dims; total matches headline)."""
    return _brain_scale("bagualu-1.93T", d_model=4096, d_ff=16384, n_layers=24, n_heads=32, num_experts=600)


def bagualu_14_5t() -> ModelConfig:
    """~14.5 T parameters — the paper's main trained model class."""
    return _brain_scale("bagualu-14.5T", d_model=4096, d_ff=16384, n_layers=48, n_heads=32, num_experts=2250)


def bagualu_174t() -> ModelConfig:
    """~174 T parameters — the brain-scale (synapse-count) configuration."""
    return _brain_scale("bagualu-174T", d_model=4096, d_ff=16384, n_layers=96, n_heads=32, num_experts=13500)


BRAIN_SCALE_CONFIGS = {
    "1.93T": bagualu_1_93t,
    "14.5T": bagualu_14_5t,
    "174T": bagualu_174t,
}
