"""Activation recomputation: gradient identity and model integration."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.models import MLP, build_model, tiny_config
from repro.tensor import Tensor, checkpoint, gelu, gradcheck, no_grad


RNG = np.random.default_rng(3)


def t64(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True, dtype="fp64")


class TestCheckpointOp:
    def test_forward_value_identical(self):
        x = t64((4, 5))
        plain = gelu(x * 2.0)
        ckpt = checkpoint(lambda v: gelu(v * 2.0), x)
        assert np.array_equal(plain.data, ckpt.data)

    def test_gradient_identical_to_plain(self):
        def fn(v):
            return gelu(v @ v.transpose()) * 3.0

        x1 = t64((4, 4))
        fn(x1).sum().backward()
        x2 = Tensor(x1.data.copy(), requires_grad=True, dtype="fp64")
        checkpoint(fn, x2).sum().backward()
        assert np.allclose(x1.grad, x2.grad)

    def test_gradcheck_through_checkpoint(self):
        gradcheck(lambda ins: checkpoint(lambda v: gelu(gelu(v)), ins[0]), [t64((3, 3))])

    def test_multiple_inputs(self):
        def fn(a, b):
            return gelu(a @ b)

        a1, b1 = t64((2, 3)), t64((3, 2))
        fn(a1, b1).sum().backward()
        a2 = Tensor(a1.data.copy(), requires_grad=True, dtype="fp64")
        b2 = Tensor(b1.data.copy(), requires_grad=True, dtype="fp64")
        checkpoint(fn, a2, b2).sum().backward()
        assert np.allclose(a1.grad, a2.grad)
        assert np.allclose(b1.grad, b2.grad)

    def test_parameter_gradients_accumulate(self):
        """fn closing over module parameters must still train them."""
        mlp = MLP(4, 8, np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(5, 4)).astype(np.float32), requires_grad=True)
        checkpoint(mlp, x).sum().backward()
        assert mlp.fc_in.weight.grad is not None
        assert mlp.fc_out.weight.grad is not None
        assert x.grad is not None

    def test_param_grads_match_plain(self):
        mlp_a = MLP(4, 8, np.random.default_rng(1))
        mlp_b = MLP(4, 8, np.random.default_rng(1))
        x = RNG.normal(size=(5, 4)).astype(np.float32)
        mlp_a(Tensor(x)).sum().backward()
        checkpoint(mlp_b, Tensor(x)).sum().backward()
        assert np.allclose(mlp_a.fc_in.weight.grad, mlp_b.fc_in.weight.grad, atol=1e-6)

    def test_intermediates_not_retained(self):
        """The checkpointed output has no internal graph, only the inputs."""
        x = t64((3,))
        out = checkpoint(lambda v: gelu(gelu(v * 2.0)), x)
        assert out._node.parents == (x,)

    def test_under_no_grad_is_plain_forward(self):
        x = t64((3,))
        with no_grad():
            out = checkpoint(lambda v: v * 2.0, x)
        assert out._node is None

    def test_requires_tensor_inputs(self):
        with pytest.raises(ShapeError):
            checkpoint(lambda v: v)
        with pytest.raises(ShapeError):
            checkpoint(lambda v: v, np.zeros(3))  # type: ignore[arg-type]

    def test_fn_must_return_tensor(self):
        with pytest.raises(ShapeError):
            checkpoint(lambda v: v.data, t64((2,)))


class TestModelRecompute:
    def test_config_flag(self):
        cfg = tiny_config(recompute=True)
        model = build_model(cfg)
        assert all(b.recompute for b in model.blocks)

    def test_loss_identical_with_and_without(self):
        cfg = tiny_config()
        tokens = RNG.integers(0, cfg.vocab_size, size=(2, 8))
        plain = build_model(cfg, seed=5)
        ckpt = build_model(tiny_config(recompute=True), seed=5)
        assert plain.loss(tokens, tokens).item() == pytest.approx(
            ckpt.loss(tokens, tokens).item(), abs=1e-6
        )

    def test_gradients_identical_with_and_without(self):
        cfg = tiny_config()
        tokens = RNG.integers(0, cfg.vocab_size, size=(2, 8))
        plain = build_model(cfg, seed=5)
        ckpt = build_model(tiny_config(recompute=True), seed=5)
        plain.loss(tokens, tokens).backward()
        ckpt.loss(tokens, tokens).backward()
        for (name, a), (_, b) in zip(plain.named_parameters(), ckpt.named_parameters()):
            if a.grad is None:
                assert b.grad is None, name
                continue
            assert np.allclose(a.grad, b.grad, atol=1e-5), name

    def test_training_converges_with_recompute(self):
        from repro.data import ShardedLoader, SyntheticCorpus
        from repro.train import Adam, Trainer

        cfg = tiny_config(recompute=True)
        model = build_model(cfg, seed=1)
        corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, predictability=0.9, seed=3)
        loader = ShardedLoader(corpus, 8, 16)
        trainer = Trainer(model, Adam(model.parameters(), lr=3e-3))
        hist = trainer.fit(loader, 30)
        assert hist[-1].loss < hist[0].loss

    def test_eval_mode_skips_checkpointing(self):
        """In eval there is no backward, so no need for the extra forward."""
        cfg = tiny_config(recompute=True)
        model = build_model(cfg, seed=2).eval()
        tokens = RNG.integers(0, cfg.vocab_size, size=(1, 4))
        out = model(tokens)  # must simply work
        assert out.shape == (1, 4, cfg.vocab_size)


class TestRecomputeUnderParallelStrategies:
    """A sublayer that communicates is never checkpointed. Every strategy
    builds its MoE FFNs as ``DistributedMoELayer`` and, under ``tp``, its
    dense FFNs as ``TensorParallelMLP``: checkpointing either would re-run
    its collectives inside backward (and an MoE layer's aux loss would be
    taken under ``no_grad``, dropping the router's balance-loss gradient)."""

    @pytest.mark.parametrize(
        "world,ep,pp,tp",
        [(2, 2, 1, 1), (4, 2, 1, 1), (4, 2, 2, 1), (1, 1, 1, 1),
         (4, 2, 1, 2), (4, 1, 1, 2)],
        ids=["w2-ep2", "w4-ep2", "w4-pp2-ep2", "w1", "w4-tp2-ep2", "w4-tp2"],
    )
    def test_recompute_changes_no_loss_traffic_or_clock(self, world, ep, pp, tp):
        from repro.parallel import TrainingRunConfig, run_distributed_training

        # tp shards the dense FFN blocks, so the model needs some.
        dense = {"moe_every": 2} if tp > 1 else {}

        def run(recompute):
            return run_distributed_training(TrainingRunConfig(
                model=tiny_config(recompute=recompute, **dense),
                world_size=world, ep_size=ep, pp_size=pp, tp_size=tp,
                num_steps=3, batch_size=4, seq_len=8,
            ))

        plain, ckpt = run(False), run(True)
        assert ckpt.losses == plain.losses
        assert ckpt.traffic == plain.traffic
        assert ckpt.simulated_time == plain.simulated_time


class TestPerfRecomputeKnob:
    def test_memory_drops_with_recompute(self):
        from repro.models import bagualu_14_5t
        from repro.perf import ParallelPlan, node_memory

        cfg = bagualu_14_5t()
        base = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=8, seq_len=2048)
        ck = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=8, seq_len=2048,
                          recompute=True)
        assert node_memory(cfg, ck).activations < node_memory(cfg, base).activations / 3

    def test_compute_rises_with_recompute(self):
        from repro.hardware import sunway_machine
        from repro.models import bagualu_14_5t
        from repro.network import sunway_network
        from repro.perf import ParallelPlan, StepModel

        sm = StepModel(bagualu_14_5t(), sunway_machine(96000), sunway_network(96000))
        base = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=8, seq_len=2048)
        ck = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=8, seq_len=2048,
                          recompute=True)
        t0 = sm.step_breakdown(base).dense_compute
        t1 = sm.step_breakdown(ck).dense_compute
        assert t1 == pytest.approx(t0 * 4 / 3, rel=1e-6)
