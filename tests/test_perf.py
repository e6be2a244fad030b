"""Analytic performance model: FLOPs, memory, step model, sweeps, and the
measured-vs-projected calibration check."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hardware import sunway_machine
from repro.models import BRAIN_SCALE_CONFIGS, bagualu_14_5t, small_config, tiny_config
from repro.network import sunway_network
from repro.perf import (
    ComputeTimer,
    ParallelPlan,
    StepModel,
    forward_flops_per_token,
    node_memory,
    step_flops,
    step_flops_per_token,
    strong_scaling_rows,
    weak_scaling_rows,
)
from repro.perf.flops import (
    dense_forward_flops_per_token,
    expert_forward_flops_per_row,
)
from repro.tensor.dtype import itemsize

CFG = bagualu_14_5t()
MACHINE = sunway_machine(96_000)
NET = sunway_network(96_000)
ALL_CONFIGS = [tiny_config(), small_config(),
               *(BRAIN_SCALE_CONFIGS[k]() for k in sorted(BRAIN_SCALE_CONFIGS))]


def plan(**kw):
    defaults = dict(num_nodes=96_000, ep_size=96_000, micro_batch=1, seq_len=2048)
    defaults.update(kw)
    return ParallelPlan(**defaults)


class TestFlops:
    def test_forward_dominated_by_active_params(self):
        f = forward_flops_per_token(CFG, 2048)
        assert f >= 2 * CFG.active_params_per_token

    def test_step_is_3x_forward(self):
        assert step_flops_per_token(CFG, 128) == pytest.approx(
            3 * forward_flops_per_token(CFG, 128)
        )

    def test_step_flops_linear_in_tokens(self):
        assert step_flops(CFG, 2000) == pytest.approx(2 * step_flops(CFG, 1000))

    def test_moe_cheaper_than_dense_equivalent(self):
        """Core MoE premise: FLOPs/token ~ active params << total params."""
        f = forward_flops_per_token(CFG, 2048)
        assert f < 2 * CFG.total_params / 100

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            forward_flops_per_token(CFG, 0)
        with pytest.raises(ConfigError):
            step_flops(CFG, -1)

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda cfg: cfg.name)
    def test_replicated_params_equal_the_three_old_sums(self, cfg):
        """``StepModel``, ``node_memory`` and ``active_params_per_token``
        each summed dense blocks + routers; the counts are ints, so the one
        ``ModelConfig.replicated_params`` is every one of them exactly."""
        dense = (cfg.attention_params + cfg.dense_ffn_params
                 + cfg.layernorm_params + cfg.embedding_params)
        routers = cfg.num_moe_layers * cfg.d_model * cfg.num_experts
        experts = cfg.num_moe_layers * cfg.num_experts * cfg.ffn_expert_params
        assert type(cfg.replicated_params) is int
        assert cfg.replicated_params == dense + routers
        assert cfg.replicated_params == cfg.total_params - experts
        assert cfg.active_params_per_token == (
            dense + routers + cfg.num_moe_layers * cfg.top_k * cfg.ffn_expert_params
        )
        one = ParallelPlan(num_nodes=1, ep_size=1, seq_len=16)
        assert node_memory(cfg, one).dense_params == (
            (dense + routers) * itemsize(cfg.dtype)
        )

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda cfg: cfg.name)
    def test_shared_terms_equal_the_three_old_spellings(self, cfg):
        """``ComputeTimer``, ``StepModel`` and ``DecodeTimer`` each spelled
        the dense and expert FLOP terms out, with three operand orders. The
        products are integer-valued and far below 2**53, so the one
        definition in ``perf/flops.py`` reproduces all three bit for bit."""
        per_row = expert_forward_flops_per_row(cfg)
        assert per_row == 2.0 * cfg.ffn_expert_params
        sharded = 2.0 * cfg.dense_ffn_params
        for seq in (1, 16, cfg.max_seq_len):
            fwd = forward_flops_per_token(cfg, seq)
            assert fwd < 2**53 and fwd == int(fwd)
            # ComputeTimer.__init__ / DecodeTimer.__init__ order ...
            timer = fwd - cfg.top_k * 2.0 * cfg.ffn_expert_params * cfg.num_moe_layers
            # ... and StepModel.dense_compute_time's.
            model = fwd - cfg.num_moe_layers * cfg.top_k * 2.0 * cfg.ffn_expert_params
            assert dense_forward_flops_per_token(cfg, seq) == timer == model
            for tp in (2, 4):
                assert dense_forward_flops_per_token(cfg, seq, tp) == (
                    timer - sharded + sharded / tp
                )
        # DecodeTimer's linear base: a one-position forward minus its
        # single attention pair.
        quad = cfg.n_layers * 4.0 * cfg.d_model
        old_base = (
            forward_flops_per_token(cfg, 1)
            - cfg.top_k * 2.0 * cfg.ffn_expert_params * cfg.num_moe_layers
            - quad
        )
        assert dense_forward_flops_per_token(cfg, 1) - quad == old_base
        # StepModel.expert_compute_time multiplied rows * layers * 2.0 * params.
        rows = 8 * cfg.max_seq_len * cfg.top_k
        old_expert = rows * cfg.num_moe_layers * 2.0 * cfg.ffn_expert_params
        assert rows * cfg.num_moe_layers * per_row == old_expert < 2**53


class TestParallelPlan:
    def test_tokens_accounting(self):
        p = plan(micro_batch=2)
        assert p.tokens_per_rank == 4096
        assert p.global_tokens == 4096 * 96_000

    def test_ep_grouping(self):
        p = plan(ep_size=250, num_nodes=1000)
        assert p.layout.num_ep_groups == 4  # what StepModel reads

    def test_ep_must_divide_nodes(self):
        with pytest.raises(ConfigError):
            plan(num_nodes=10, ep_size=3)

    def test_ep_cannot_exceed_instances(self):
        small = tiny_config()  # 2 layers x 4 experts = 8 instances
        p = ParallelPlan(num_nodes=16, ep_size=16, seq_len=16)
        with pytest.raises(ConfigError):
            p.validate_against(small)

    def test_seq_len_bounded_by_model(self):
        with pytest.raises(ConfigError):
            plan(seq_len=4096).validate_against(CFG)

    def test_imbalance_must_be_at_least_one(self):
        with pytest.raises(ConfigError):
            plan(load_imbalance=0.9)


class TestMemory:
    def test_moda_fits_class_of_node(self):
        """T4 shape: sharded experts keep per-node params ~ O(10 GB)."""
        mem = node_memory(CFG, plan())
        assert mem.expert_params < 1e9  # sharded over the whole machine
        assert mem.params < 20e9

    def test_replicated_experts_infeasible(self):
        """T4 shape: replicating 14.5T params needs ~ 29 TB per node."""
        mem = node_memory(CFG, plan(), replicate_experts=True)
        assert mem.expert_params > 20e12

    def test_zero_shards_reduce_optimizer_state(self):
        full = node_memory(CFG, plan(zero_shards=1))
        shard = node_memory(CFG, plan(zero_shards=8))
        assert shard.optimizer_state == pytest.approx(full.optimizer_state / 8)
        assert shard.params == full.params

    def test_activation_scales_with_batch(self):
        a = node_memory(CFG, plan(micro_batch=1))
        b = node_memory(CFG, plan(micro_batch=4))
        assert b.activations == pytest.approx(4 * a.activations)

    def test_breakdown_total(self):
        mem = node_memory(CFG, plan())
        assert mem.total == pytest.approx(
            mem.params + mem.gradients + mem.optimizer_state + mem.activations
        )


class TestStepModel:
    def test_breakdown_positive(self):
        sm = StepModel(CFG, MACHINE, NET)
        bd = sm.step_breakdown(plan())
        assert bd.dense_compute > 0
        assert bd.expert_compute > 0
        assert bd.alltoall > 0
        assert bd.dense_allreduce > 0
        assert bd.expert_allreduce == 0.0  # single EP group spans machine
        assert bd.total == pytest.approx(bd.compute + bd.communication)

    def test_headline_mixed_precision_exaflops(self):
        """T2 shape: sustained mixed-precision ~ 1 EFLOPS at 96k nodes
        (paper: 1.18 EFLOPS)."""
        sm = StepModel(CFG, MACHINE, NET)
        achieved = sm.achieved_flops(plan(micro_batch=8, load_imbalance=1.05))
        assert 0.6e18 < achieved < 2.5e18

    def test_fp32_below_mixed_precision(self):
        """T2 shape: fp32 peak is half the fp16 peak on this machine."""
        sm16 = StepModel(CFG, MACHINE, NET)
        cfg32 = CFG.scaled(dtype="fp32")
        sm32 = StepModel(cfg32, MACHINE, NET)
        p = plan(micro_batch=8)
        assert sm32.achieved_flops(p) < sm16.achieved_flops(p)

    def test_imbalance_slows_step(self):
        sm = StepModel(CFG, MACHINE, NET)
        balanced = sm.step_time(plan(load_imbalance=1.0))
        skewed = sm.step_time(plan(load_imbalance=2.0))
        assert skewed > balanced

    def test_hierarchical_alltoall_beats_flat_at_scale(self):
        """F3 shape transfers to full training steps."""
        sm = StepModel(CFG, MACHINE, NET)
        flat = sm.step_breakdown(plan(alltoall="flat")).alltoall
        hier = sm.step_breakdown(plan(alltoall="hierarchical")).alltoall
        assert hier < flat

    def test_plan_larger_than_machine_rejected(self):
        sm = StepModel(CFG, sunway_machine(100), sunway_network(100))
        with pytest.raises(ConfigError):
            sm.step_time(plan(num_nodes=200, ep_size=200))


class TestSweeps:
    def test_weak_scaling_near_linear(self):
        """F1 shape: MoDa weak-scales at >85% efficiency to 96k nodes."""
        rows = weak_scaling_rows(
            CFG, MACHINE, [256, 4096, 96_000], ep_size=96_000, micro_batch=8,
            seq_len=2048,
        )
        assert rows[0]["efficiency"] == 1.0
        assert rows[-1]["efficiency"] > 0.85
        assert rows[-1]["flops"] > rows[0]["flops"] * 100

    def test_weak_scaling_cores_column(self):
        rows = weak_scaling_rows(CFG, MACHINE, [96_000], ep_size=96_000, seq_len=2048)
        assert rows[0]["cores"] == 96_000 * 390

    def test_strong_scaling_speedup(self):
        """F2 shape: fixed problem speeds up, sublinearly at the tail."""
        rows = strong_scaling_rows(
            CFG, MACHINE, [1024, 4096, 16384], ep_size=1024,
            global_batch_tokens=2048 * 16384, seq_len=2048,
        )
        times = [r["step_time_s"] for r in rows]
        assert times[0] > times[1] > times[2]
        assert all(0 < r["speedup_vs_linear"] <= 1.5 for r in rows)


class TestComputeTimer:
    def test_dense_time_linear_in_tokens(self):
        t = ComputeTimer(CFG, MACHINE, 2048)
        assert t.dense_step_time(2000) == pytest.approx(2 * t.dense_step_time(1000))

    def test_expert_time_linear_in_rows(self):
        t = ComputeTimer(CFG, MACHINE, 2048)
        assert t.expert_layer_time(64) == pytest.approx(2 * t.expert_layer_time(32))

    def test_consistency_with_step_model(self):
        """Calibration: ComputeTimer phases reassemble the StepModel's
        compute estimate (same machine, same config)."""
        sm = StepModel(CFG, MACHINE, NET)
        p = plan(micro_batch=1)
        bd = sm.step_breakdown(p)
        t = ComputeTimer(CFG, MACHINE, p.seq_len)
        dense = t.dense_step_time(p.tokens_per_rank)
        # Per-rank rows per layer = tokens * top_k (uniform routing).
        expert = CFG.num_moe_layers * t.expert_layer_time(p.tokens_per_rank * CFG.top_k)
        assert dense == pytest.approx(bd.dense_compute, rel=1e-6)
        assert expert == pytest.approx(bd.expert_compute, rel=1e-6)
