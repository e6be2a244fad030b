"""Strategy registry: every parallel composition trains via one entry point.

Tier-1 guard for the strategy layer: each registered strategy (and the
TP x EP / PP x DP composites) runs two steps at world_size=4 with finite,
rank-agreed losses and nonzero traffic, the RunContext spine round-trips
stats/trace/phases, and the measured and analytic sides validate layouts
through the same shared helper.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.layout import ParallelLayout
from repro.models import tiny_config
from repro.parallel import (
    TrainingRunConfig,
    available_strategies,
    get_strategy,
    run_distributed_training,
    strategy_for_layout,
)
from repro.perf import ParallelPlan

TINY = tiny_config()
#: TP and pipeline strategies want dense FFN blocks / enough layers.
TINY4 = tiny_config(n_layers=4, moe_every=2)

#: One world_size=4 launch recipe per registered strategy.
CASES = {
    "dp": dict(model=TINY),
    "ep": dict(model=TINY, ep_size=4),
    "moda": dict(model=TINY, ep_size=2),
    "tp": dict(model=TINY4, tp_size=2),
    "tp_ep": dict(model=TINY4, tp_size=2, ep_size=2),
    "zero": dict(model=TINY, ep_size=2, zero_shards=2),
    "pipeline": dict(model=TINY4, pp_size=4),
    "pp_dp": dict(model=TINY4, pp_size=2),
    "pp_moda": dict(model=TINY4, pp_size=2, ep_size=2),
}


class TestRegistry:
    def test_every_registered_strategy_is_exercised(self):
        assert sorted(CASES) == available_strategies()

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            get_strategy("fsdp")

    def test_config_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            TrainingRunConfig(model=TINY, world_size=4, strategy="fsdp")

    @pytest.mark.parametrize(
        ("layout_kw", "expected"),
        [
            (dict(), "dp"),
            (dict(ep_size=4), "ep"),
            (dict(ep_size=2), "moda"),
            (dict(tp_size=2), "tp"),
            (dict(tp_size=2, ep_size=2), "tp_ep"),
            (dict(zero_shards=4), "zero"),
            (dict(pp_size=4), "pipeline"),
            (dict(pp_size=2), "pp_dp"),
            (dict(pp_size=2, ep_size=2), "pp_moda"),
        ],
    )
    def test_auto_inference(self, layout_kw, expected):
        layout = ParallelLayout(world_size=4, **layout_kw)
        assert strategy_for_layout(layout).name == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_strategy_trains_two_steps(name):
    cfg = TrainingRunConfig(world_size=4, num_steps=2, **CASES[name])
    res = run_distributed_training(cfg)
    assert res.meta["strategy"] == name
    assert len(res.losses) == 2
    assert all(np.isfinite(v) for v in res.losses)
    assert res.traffic["total_bytes"] > 0
    # The RunContext spine fed the result: phases accumulated in virtual
    # seconds and the same stats object backs the traffic summary.
    assert res.context is not None
    assert res.phase_seconds and all(t >= 0 for t in res.phase_seconds.values())
    assert res.context.stats.summary() == res.traffic


class TestCompositeNumerics:
    def test_tp_matches_dp_on_same_data(self):
        """TP reshards FLOPs, never changes math: a 4-rank tp=2 run sees
        the same two data streams as a 2-rank dp run and must produce the
        identical loss trajectory."""
        dp = run_distributed_training(
            TrainingRunConfig(model=TINY4, world_size=2, num_steps=2)
        )
        tp = run_distributed_training(
            TrainingRunConfig(model=TINY4, world_size=4, tp_size=2, num_steps=2)
        )
        assert np.allclose(dp.losses, tp.losses, atol=1e-5)

    def test_zero_matches_plain_adam(self):
        """ZeRO shards optimizer state, not math: same trajectory as moda."""
        base = run_distributed_training(
            TrainingRunConfig(model=TINY, world_size=4, ep_size=2, num_steps=2)
        )
        zero = run_distributed_training(
            TrainingRunConfig(
                model=TINY, world_size=4, ep_size=2, zero_shards=2, num_steps=2
            )
        )
        assert np.allclose(base.losses, zero.losses, atol=1e-5)


class TestValidation:
    def test_tp_needs_dense_blocks(self):
        cfg = TrainingRunConfig(model=TINY, world_size=4, tp_size=2)
        with pytest.raises(ConfigError):
            run_distributed_training(cfg)

    def test_pipeline_microbatches_must_divide_batch(self):
        cfg = TrainingRunConfig(
            model=TINY4, world_size=4, pp_size=4, batch_size=4, num_microbatches=3
        )
        with pytest.raises(ConfigError):
            run_distributed_training(cfg)

    @pytest.mark.parametrize("name", ["pipeline", "pp_dp", "pp_moda"])
    def test_pipeline_rejects_overlap_chunks(self, name):
        """The pipeline path does not chunk dispatch: the knob is refused,
        not silently dropped."""
        cfg = TrainingRunConfig(world_size=4, overlap_chunks=4, **CASES[name])
        with pytest.raises(ConfigError, match="overlap_chunks=4"):
            run_distributed_training(cfg)

    def test_zero_shards_bounded_by_world(self):
        cfg = TrainingRunConfig(model=TINY, world_size=4, zero_shards=8)
        with pytest.raises(ConfigError):
            run_distributed_training(cfg)

    def test_layout_rejects_bad_factorization(self):
        with pytest.raises(ConfigError):
            ParallelLayout(world_size=8, pp_size=3)
        with pytest.raises(ConfigError):
            ParallelLayout(world_size=8, tp_size=2, ep_size=8)

    def test_plan_and_config_share_the_layout_helper(self):
        plan = ParallelPlan(num_nodes=8, ep_size=4, zero_shards=2)
        cfg = TrainingRunConfig(
            model=TINY, world_size=8, ep_size=4, zero_shards=2
        )
        assert plan.layout == cfg.layout
        with pytest.raises(ConfigError):
            ParallelPlan(num_nodes=8, ep_size=3)
        with pytest.raises(ConfigError):
            TrainingRunConfig(model=TINY, world_size=8, ep_size=3)


class TestRunContextRoundTrip:
    def test_trace_and_stats_round_trip(self, tmp_path):
        cfg = TrainingRunConfig(
            model=TINY, world_size=4, ep_size=2, num_steps=2, trace=True
        )
        res = run_distributed_training(cfg)
        assert res.context.tracing and res.trace
        out = tmp_path / "trace.json"
        res.context.write_chrome_trace(out)
        events = json.loads(out.read_text())["traceEvents"]
        assert sum(e["ph"] == "X" for e in events) == len(res.trace)
        assert {"forward", "backward", "grad_sync"} <= set(res.phase_seconds)
        summary = res.context.summary()
        assert summary["num_trace_events"] == len(res.trace)
        assert summary["traffic"]["total_bytes"] == res.traffic["total_bytes"]
        # Deterministically sorted keys: logged summaries diff cleanly.
        nested = res.traffic["collective_calls"]
        assert list(nested) == sorted(nested)

    def test_untraced_run_refuses_export(self, tmp_path):
        res = run_distributed_training(
            TrainingRunConfig(model=TINY, world_size=2, num_steps=1)
        )
        assert not res.context.tracing
        with pytest.raises(ConfigError):
            res.context.write_chrome_trace(tmp_path / "nope.json")
