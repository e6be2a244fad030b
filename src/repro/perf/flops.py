"""FLOP accounting for MoE transformer training steps.

Uses the standard approximation: forward FLOPs/token ~ 2 x active
parameters plus the sequence-quadratic attention terms; backward costs 2x
forward. "Active" parameters count only the top_k experts a token visits —
the quantity that makes MoE models cheap to train at enormous total
parameter counts (the paper's central premise).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.models.configs import ModelConfig

__all__ = [
    "forward_flops_per_token",
    "step_flops_per_token",
    "step_flops",
    "BACKWARD_MULTIPLIER",
]

#: backward ~ 2x forward => one step = 3x forward FLOPs.
BACKWARD_MULTIPLIER = 2.0


def forward_flops_per_token(config: ModelConfig, seq_len: int | None = None) -> float:
    """Forward FLOPs per token (matmul terms; LN/softmax are negligible)."""
    t = config.max_seq_len if seq_len is None else seq_len
    if t < 1:
        raise ConfigError(f"seq_len must be >= 1, got {t}")
    dense = 2.0 * config.active_params_per_token
    # Attention score matmuls: QK^T and attn@V, each 2*T*d per token/layer.
    attn_quadratic = config.n_layers * 4.0 * t * config.d_model
    return dense + attn_quadratic


def expert_forward_flops_per_row(config: ModelConfig) -> float:
    """Forward FLOPs for one routed row through one expert MLP."""
    return 2.0 * config.ffn_expert_params


def dense_forward_flops_per_token(
    config: ModelConfig, seq_len: int | None = None, tp_size: int = 1
) -> float:
    """Forward FLOPs per token for everything except the expert MLPs.

    ``tp_size`` shards the dense-FFN matmuls (2 FLOPs/param forward);
    attention, LN, embeddings and routers stay replicated. Shared by
    ``ComputeTimer``, ``StepModel`` and the serving ``DecodeTimer``, so
    predicted and measured runs price compute with the same terms.
    """
    expert_fwd = (
        config.num_moe_layers * config.top_k * expert_forward_flops_per_row(config)
    )
    dense_fwd = forward_flops_per_token(config, seq_len) - expert_fwd
    if tp_size == 1:
        return dense_fwd
    sharded_fwd = 2.0 * config.dense_ffn_params
    return dense_fwd - sharded_fwd + sharded_fwd / tp_size


def step_flops_per_token(config: ModelConfig, seq_len: int | None = None) -> float:
    """Forward + backward FLOPs per token."""
    return (1.0 + BACKWARD_MULTIPLIER) * forward_flops_per_token(config, seq_len)


def step_flops(config: ModelConfig, num_tokens: int, seq_len: int | None = None) -> float:
    """Total training FLOPs for one step over ``num_tokens`` tokens."""
    if num_tokens < 0:
        raise ConfigError(f"num_tokens must be >= 0, got {num_tokens}")
    return num_tokens * step_flops_per_token(config, seq_len)
