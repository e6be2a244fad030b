"""Odds-and-ends coverage: small accessors and invariants not covered by
the feature-focused suites."""

import numpy as np
import pytest

from repro.moe import load_stats
from repro.models import tiny_config
from repro.simmpi import SpmdResult, TrafficStats
from repro.tensor import Tensor


class TestSpmdResultAccessors:
    def test_empty_clocks_simulated_time(self):
        res = SpmdResult(returns=[], clocks=[], stats=TrafficStats())
        assert res.simulated_time == 0.0

    def test_traffic_stats_summary_keys(self):
        s = TrafficStats()
        s.record_p2p(100)
        s.record_collective("allreduce", 50)
        summary = s.summary()
        assert summary["p2p_bytes"] == 100
        assert summary["collective_bytes"] == {"allreduce": 50}
        assert summary["total_bytes"] == 150


class TestConfigDerivedCounts:
    def test_moe_layer_counting(self):
        cfg = tiny_config(n_layers=4, moe_every=2)
        assert cfg.num_moe_layers == 2
        assert cfg.num_dense_ffn_layers == 2

    def test_all_moe_when_every_is_one(self):
        cfg = tiny_config(n_layers=4, moe_every=1)
        assert cfg.num_moe_layers == 4
        assert cfg.num_dense_ffn_layers == 0

    def test_param_breakdown_sums_to_total(self):
        cfg = tiny_config()
        total = (
            cfg.attention_params
            + cfg.moe_params
            + cfg.dense_ffn_params
            + cfg.layernorm_params
            + cfg.embedding_params
        )
        assert total == cfg.total_params

    def test_active_leq_total(self):
        for cfg in (tiny_config(), tiny_config(top_k=2)):
            assert cfg.active_params_per_token <= cfg.total_params


class TestLoadStatsEdge:
    def test_single_expert(self):
        s = load_stats(np.array([10]))
        assert s.imbalance == 1.0
        assert s.max == s.min == 10


class TestPipelineStageAux:
    def test_stage_without_moe_has_no_aux(self):
        from repro.parallel import PipelineStage

        cfg = tiny_config(n_layers=2, moe_every=3)  # no MoE layer triggers
        stage = PipelineStage(cfg, num_stages=1, stage=0, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, cfg.d_model)).astype(np.float32))
        h = stage.embed(np.zeros((1, 4), dtype=np.int64))
        stage(h)
        assert stage.aux_loss() is None


class TestStepBreakdownDict:
    def test_as_dict_consistency(self):
        from repro.hardware import sunway_machine
        from repro.models import bagualu_14_5t
        from repro.network import sunway_network
        from repro.perf import ParallelPlan, StepModel

        sm = StepModel(bagualu_14_5t(), sunway_machine(1024), sunway_network(1024))
        bd = sm.step_breakdown(ParallelPlan(num_nodes=1024, ep_size=1024, seq_len=2048))
        d = bd.as_dict()
        assert d["total"] == pytest.approx(
            d["dense_compute"] + d["expert_compute"] + d["alltoall"]
            + d["dense_allreduce"] + d["expert_allreduce"]
        )
