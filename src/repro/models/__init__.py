"""Model zoo: modules, layers, attention, MoE layer, transformer LM."""

from repro.models.module import Module, Parameter
from repro.models.layers import MLP, Embedding, LayerNorm, Linear
from repro.models.attention import CausalSelfAttention
from repro.models.moe_layer import MoELayer
from repro.models.generate import generate
from repro.models.transformer import MoELanguageModel, TransformerBlock, build_model
from repro.models.configs import (
    BRAIN_SCALE_CONFIGS,
    ModelConfig,
    bagualu_1_93t,
    bagualu_14_5t,
    bagualu_174t,
    small_config,
    tiny_config,
)

__all__ = [
    "Module",
    "Parameter",
    "MLP",
    "Embedding",
    "LayerNorm",
    "Linear",
    "CausalSelfAttention",
    "MoELayer",
    "MoELanguageModel",
    "TransformerBlock",
    "build_model",
    "generate",
    "BRAIN_SCALE_CONFIGS",
    "ModelConfig",
    "bagualu_1_93t",
    "bagualu_14_5t",
    "bagualu_174t",
    "small_config",
    "tiny_config",
]
