"""The layout is the strategy: every parallel composition trains via one entry point.

Tier-1 guard for the strategy layer: each layout family (and the
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
from repro.parallel import TrainingRunConfig, run_distributed_training, strategy_for_layout
from repro.perf import ParallelPlan

TINY = tiny_config()
#: TP and pipeline strategies want dense FFN blocks / enough layers.
TINY4 = tiny_config(n_layers=4, moe_every=2)

#: One world_size=4 launch recipe per strategy name.
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


#: Passes every layout-vs-model check up to world 8: ep and tp divide 840,
#: eight layers feed eight stages, and every other block is dense.
ROOMY = tiny_config(n_layers=8, moe_every=2, num_experts=840, d_ff=840)


def _layouts(world: int):
    """Every layout of ``world``: each pp, tp x ep and zero in 1..2*world."""
    for pp in (d for d in range(1, world + 1) if world % d == 0):
        plane = world // pp
        for tp in (d for d in range(1, plane + 1) if plane % d == 0):
            for ep in (d for d in range(1, plane // tp + 1) if plane // tp % d == 0):
                for zero in range(1, 2 * world + 1):
                    yield ParallelLayout(world, ep_size=ep, tp_size=tp, pp_size=pp,
                                         zero_shards=zero)


def _dispatch_name(lay: ParallelLayout) -> str:
    """Pipeline beats TP beats ZeRO; the expert axis picks the variant."""
    if lay.pp_size > 1:
        return "pp_moda" if lay.ep_size > 1 else "pp_dp" if lay.plane_size > 1 else "pipeline"
    if lay.tp_size > 1:
        return "tp_ep" if lay.ep_size > 1 else "tp"
    if lay.zero_shards > 1:
        return "zero"
    return "dp" if lay.ep_size == 1 else "ep" if lay.ep_size == lay.world_size else "moda"


class TestRegistry:
    """``strategy_for_layout`` is the one map from layout to strategy."""

    @pytest.mark.parametrize("world", range(1, 9))
    def test_layout_sweep(self, world):
        """Every layout gets its dispatch-order name, and ``validate``
        refuses the two ZeRO rules (message naming ``zero_shards``) ahead
        of everything else; the only other refusal a roomy model leaves is
        pipeline x tp."""
        names = set()
        for lay in _layouts(world):
            cfg = TrainingRunConfig(
                model=ROOMY, world_size=world, ep_size=lay.ep_size, tp_size=lay.tp_size,
                pp_size=lay.pp_size, zero_shards=lay.zero_shards, seq_len=8,
            )
            strategy = cfg.resolve_strategy()
            assert strategy.name == _dispatch_name(lay)
            names.add(strategy.name)
            zero_refused = lay.zero_shards > world or (
                lay.zero_shards > 1 and (lay.tp_size > 1 or lay.pp_size > 1)
            )
            if zero_refused:
                with pytest.raises(ConfigError, match="zero_shards"):
                    strategy.validate(cfg)
            elif lay.pp_size > 1 and lay.tp_size > 1:
                with pytest.raises(ConfigError, match="do not compose with tp"):
                    strategy.validate(cfg)
            else:
                strategy.validate(cfg)
        if world in (4, 6, 8):  # composite worlds reach every family
            assert names == set(CASES)

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
