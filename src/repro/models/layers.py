"""Basic layers: Linear, Embedding, LayerNorm, MLP."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor, embedding as F_embedding, gelu, layer_norm
from repro.models.module import Module, Parameter

__all__ = ["Linear", "Embedding", "LayerNorm", "MLP"]

#: GPT-style weight init: every weight matrix draws from N(0, INIT_STD).
INIT_STD = 0.02


class Linear(Module):
    """Affine map ``y = x W + b`` with GPT-style init (normal, std=0.02)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        dtype: str = "fp32",
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ConfigError("Linear features must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            rng.normal(0.0, INIT_STD, size=(in_features, out_features)), dtype=dtype
        )
        self.bias = Parameter(np.zeros(out_features), dtype=dtype) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token embedding table (V, D)."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        dtype: str = "fp32",
    ):
        super().__init__()
        if num_embeddings < 1 or embedding_dim < 1:
            raise ConfigError("Embedding sizes must be >= 1")
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, INIT_STD, size=(num_embeddings, embedding_dim)), dtype=dtype
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        return F_embedding(self.weight, ids)


class LayerNorm(Module):
    """Learned layer normalization over the last dimension."""

    def __init__(self, dim: int, dtype: str = "fp32"):
        super().__init__()
        if dim < 1:
            raise ConfigError("LayerNorm dim must be >= 1")
        self.dim = dim
        self.weight = Parameter(np.ones(dim), dtype=dtype)
        self.bias = Parameter(np.zeros(dim), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias)


class MLP(Module):
    """Transformer feed-forward block: Linear -> GELU -> Linear.

    Also serves as a single MoE *expert* (BaGuaLu's experts are exactly
    this shape).
    """

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        rng: np.random.Generator,
        dtype: str = "fp32",
    ):
        super().__init__()
        self.d_model = d_model
        self.d_ff = d_ff
        self.fc_in = Linear(d_model, d_ff, rng, dtype=dtype)
        self.fc_out = Linear(d_ff, d_model, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc_out(gelu(self.fc_in(x)))
