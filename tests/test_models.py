"""Module system, layers, attention, MoE layer, and full model tests."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError
from repro.models import (
    MLP,
    CausalSelfAttention,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    MoELayer,
    Parameter,
    bagualu_14_5t,
    bagualu_174t,
    bagualu_1_93t,
    build_model,
    small_config,
    tiny_config,
)
from repro.tensor import Tensor

RNG = np.random.default_rng(0)


class TestModuleSystem:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros(3))

        m = M()
        assert [n for n, _ in m.named_parameters()] == ["w"]

    def test_nested_modules(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros(2))

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.b = Parameter(np.zeros(1))

        names = [n for n, _ in Outer().named_parameters()]
        assert names == ["b", "inner.w"]

    def test_module_list_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.register_module_list("items", [Linear(2, 2, RNG) for _ in range(3)])

        m = M()
        assert len(m.parameters()) == 6  # 3 x (weight, bias)

    def test_num_parameters(self):
        lin = Linear(4, 3, RNG)
        assert lin.num_parameters() == 4 * 3 + 3

    def test_train_eval_recursive(self):
        model = build_model(tiny_config())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self):
        a = Linear(3, 3, np.random.default_rng(1))
        b = Linear(3, 3, np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_state_dict_strict_mismatch(self):
        a = Linear(3, 3, RNG)
        with pytest.raises(CheckpointError):
            a.load_state_dict({"weight": np.zeros((3, 3))})  # missing "bias"

    def test_state_dict_shape_mismatch(self):
        a = Linear(3, 3, RNG)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError):
            a.load_state_dict(state)

    def test_zero_grad(self):
        lin = Linear(2, 2, RNG)
        out = lin(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None


class TestLayers:
    def test_linear_shapes(self):
        lin = Linear(4, 6, RNG)
        out = lin(Tensor(np.zeros((2, 3, 4))))
        assert out.shape == (2, 3, 6)

    def test_linear_no_bias(self):
        lin = Linear(4, 2, RNG, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_embedding_forward(self):
        emb = Embedding(10, 4, RNG)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_layernorm_normalizes(self):
        ln = LayerNorm(8)
        x = Tensor(RNG.normal(size=(4, 8)) * 5 + 3)
        out = ln(x)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)

    def test_mlp_shapes(self):
        mlp = MLP(8, 32, RNG)
        out = mlp(Tensor(np.zeros((5, 8))))
        assert out.shape == (5, 8)

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            Linear(0, 4, RNG)
        with pytest.raises(ConfigError):
            LayerNorm(0)


class TestAttention:
    def test_output_shape(self):
        attn = CausalSelfAttention(16, 4, RNG)
        out = attn(Tensor(RNG.normal(size=(2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_causality(self):
        """Changing a future token must not change past outputs."""
        attn = CausalSelfAttention(8, 2, np.random.default_rng(3))
        x1 = RNG.normal(size=(1, 6, 8)).astype(np.float32)
        x2 = x1.copy()
        x2[0, 5] += 10.0  # perturb the last position only
        o1 = attn(Tensor(x1)).data
        o2 = attn(Tensor(x2)).data
        assert np.allclose(o1[0, :5], o2[0, :5], atol=1e-5)
        assert not np.allclose(o1[0, 5], o2[0, 5])

    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            CausalSelfAttention(10, 3, RNG)

    def test_gradients_flow(self):
        attn = CausalSelfAttention(8, 2, RNG)
        x = Tensor(RNG.normal(size=(1, 4, 8)), requires_grad=True)
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.qkv.weight.grad is not None


class TestMoELayer:
    def _layer(self, **kw):
        defaults = dict(
            d_model=8, d_ff=16, num_experts=4, rng=np.random.default_rng(5),
            gate="topk", top_k=1,
        )
        defaults.update(kw)
        return MoELayer(**defaults)

    def test_output_shape_2d(self):
        layer = self._layer()
        out = layer(Tensor(RNG.normal(size=(10, 8))))
        assert out.shape == (10, 8)

    def test_output_shape_3d(self):
        layer = self._layer()
        out = layer(Tensor(RNG.normal(size=(2, 5, 8))))
        assert out.shape == (2, 5, 8)

    def test_aux_loss_populated(self):
        layer = self._layer()
        layer(Tensor(RNG.normal(size=(10, 8))))
        assert layer.last_aux_loss is not None
        assert layer.last_load is not None
        assert layer.last_load.sum() == 10

    def test_single_expert_equals_mlp(self):
        """With one expert the MoE layer must reduce to its MLP."""
        layer = self._layer(num_experts=1)
        x = Tensor(RNG.normal(size=(6, 8)))
        out = layer(x)
        expected = layer.experts[0](x)
        assert np.allclose(out.data, expected.data, atol=1e-5)

    def test_capacity_drops_tokens(self):
        layer = self._layer(capacity_factor=0.25)
        # Force skew: all tokens similar -> same expert preferred.
        x = Tensor(np.tile(RNG.normal(size=(1, 8)), (16, 1)))
        layer(x)
        assert layer.last_drop_fraction > 0

    def test_gradients_reach_all_touched_experts(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(32, 8)), requires_grad=True)
        layer(x).sum().backward()
        touched = [e for e in range(4) if layer.last_load[e] > 0]
        for e in touched:
            assert layer.experts[e].fc_in.weight.grad is not None
        # The router is trained through the combine weights even without
        # the aux loss.
        assert layer.router.weight.grad is not None

    def test_aux_loss_backward_reaches_router(self):
        layer = self._layer()
        x = Tensor(RNG.normal(size=(16, 8)))
        out = layer(x)
        (out.sum() + layer.last_aux_loss).backward()
        assert layer.router.weight.grad is not None

    def test_expert_params_marked(self):
        layer = self._layer()
        expert_flags = [getattr(p, "is_expert", False) for p in layer.experts[0].parameters()]
        assert all(expert_flags)
        assert not getattr(layer.router.weight, "is_expert", False)

    def test_invalid_input_ndim(self):
        with pytest.raises(ConfigError):
            self._layer()(Tensor(np.zeros(8)))


class TestConfigs:
    def test_tiny_params_match_model(self):
        cfg = tiny_config()
        assert build_model(cfg).num_parameters() == cfg.total_params

    def test_small_params_match_model(self):
        cfg = small_config()
        assert build_model(cfg).num_parameters() == cfg.total_params

    def test_moe_every_two(self):
        cfg = tiny_config(moe_every=2)
        model = build_model(cfg)
        assert model.num_parameters() == cfg.total_params
        assert len(model.moe_layers()) == cfg.num_moe_layers == 1

    def test_headline_parameter_counts(self):
        """T1: totals land on the paper's headline figures (within 1%)."""
        assert bagualu_1_93t().total_params == pytest.approx(1.93e12, rel=0.01)
        assert bagualu_14_5t().total_params == pytest.approx(14.5e12, rel=0.01)
        assert bagualu_174t().total_params == pytest.approx(174e12, rel=0.01)

    def test_active_params_much_smaller_than_total(self):
        cfg = bagualu_14_5t()
        assert cfg.active_params_per_token < cfg.total_params / 100

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            tiny_config(d_model=30)  # not divisible by heads
        with pytest.raises(ConfigError):
            tiny_config(top_k=100)

    def test_scaled_copy(self):
        cfg = tiny_config().scaled(n_layers=4)
        assert cfg.n_layers == 4
        assert tiny_config().n_layers == 2


class TestLanguageModel:
    def test_forward_shape(self):
        cfg = tiny_config()
        model = build_model(cfg)
        logits = model(RNG.integers(0, cfg.vocab_size, size=(2, 8)))
        assert logits.shape == (2, 8, cfg.vocab_size)

    def test_loss_near_uniform_at_init(self):
        cfg = tiny_config()
        model = build_model(cfg)
        tokens = RNG.integers(0, cfg.vocab_size, size=(2, 8))
        loss = model.loss(tokens, tokens)
        assert abs(loss.item() - np.log(cfg.vocab_size)) < 0.5

    def test_all_params_receive_grads(self):
        cfg = tiny_config()
        model = build_model(cfg)
        tokens = RNG.integers(0, cfg.vocab_size, size=(4, 8))
        model.loss(tokens, tokens).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        # Untouched experts may legitimately lack grads; everything else must have them.
        assert all("experts" in n for n in missing)

    def test_seed_reproducibility(self):
        a = build_model(tiny_config(), seed=9)
        b = build_model(tiny_config(), seed=9)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = build_model(tiny_config(), seed=1)
        b = build_model(tiny_config(), seed=2)
        assert not np.allclose(a.tok_emb.weight.data, b.tok_emb.weight.data)

    def test_sequence_too_long_rejected(self):
        cfg = tiny_config()
        model = build_model(cfg)
        with pytest.raises(ConfigError):
            model(np.zeros((1, cfg.max_seq_len + 1), dtype=np.int64))

    def test_expert_load_tracked(self):
        cfg = tiny_config()
        model = build_model(cfg)
        model(RNG.integers(0, cfg.vocab_size, size=(2, 8)))
        load = model.expert_load()
        assert load is not None
        assert load.sum() == 2 * 8 * cfg.top_k * len(model.moe_layers())
