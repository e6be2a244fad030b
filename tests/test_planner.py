"""The auto-parallelism planner: enumeration, ranking, verification, reports.

The planner's core promise is *zero drift* between its three halves: every
layout it emits launches through the measured runner, every layout it
rejects fails the launch path with the identical error message, and the
analytic ranking stays within a bounded error of measured step times after
calibration.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError, TopologyError
from repro.hardware import laptop_machine, sunway_machine
from repro.layout import ParallelLayout, validate_layout_for_model
from repro.models import small_config, tiny_config
from repro.network import CLUSTER_PRESETS, cluster_preset, sunway_network
from repro.parallel import run_distributed_training
from repro.perf import ParallelPlan, StepModel, calibrate_efficiency
from repro.plan import (
    PlannerConfig,
    build_plan_report,
    enumerate_layouts,
    plan_layouts,
    plan_records,
    search_plans,
    verify_plans,
)
from repro.plan.search import _divisors

#: Small world with every axis representable: 4 layers -> pp in {1, 2, 4},
#: alternating dense/MoE blocks -> TP has something to shard.
TINY4 = tiny_config(n_layers=4, moe_every=2, num_experts=4)


def _planner(world=4, model=TINY4, **kw):
    return PlannerConfig(model=model, num_nodes=world, cluster="toy", **kw)


class TestEnumeration:
    def test_every_layout_constructs(self):
        for world in (1, 2, 4, 6, 8, 12):
            for layout in enumerate_layouts(world):
                assert isinstance(layout, ParallelLayout)
                assert layout.world_size == world

    def test_axes_cover_divisors(self):
        layouts = enumerate_layouts(8)
        assert {l.pp_size for l in layouts} == {1, 2, 4, 8}
        assert {l.ep_size for l in layouts if l.pp_size == 1 and l.tp_size == 1} == {
            1, 2, 4, 8,
        }
        # ZeRO shard counts appear only on otherwise-pure-DP layouts.
        assert all(
            l.tp_size == 1 and l.pp_size == 1
            for l in layouts if l.zero_shards > 1
        )

    def test_no_duplicates_and_deterministic_order(self):
        a = enumerate_layouts(12)
        b = enumerate_layouts(12)
        assert a == b
        assert len(a) == len(set(a))

    def test_max_bounds_respected(self):
        layouts = enumerate_layouts(16, max_tp=2, max_zero=4)
        assert max(l.tp_size for l in layouts) <= 2
        assert max(l.zero_shards for l in layouts) <= 4

    def test_divisors_by_square_root_match_trial_division(self):
        for n in [*range(1, 5001), 96_000]:
            assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n

    def test_bad_world_rejected(self):
        with pytest.raises(ConfigError):
            enumerate_layouts(0)


class TestSearchLaunchParity:
    """Search filters through the runner's exact validation path."""

    @pytest.fixture(scope="class")
    def result(self):
        return search_plans(_planner())

    def test_search_finds_candidates(self, result):
        assert len(result.candidates) >= 5
        strategies = {c.strategy for c in result.candidates}
        # One search at world=4 exercises several registry entries.
        assert {"dp", "moda", "tp"} <= strategies

    def test_every_emitted_layout_trains(self, result):
        """The planner's core guarantee: emitted == launchable."""
        preset = result.config.preset
        world = result.config.num_nodes
        for cand in result.candidates:
            run_cfg = replace(result.config.training_config(cand.layout), num_steps=1)
            run = run_distributed_training(
                run_cfg,
                network=preset.network(world),
                machine=preset.machine(world),
            )
            assert np.isfinite(run.losses).all(), cand.layout.describe()
            assert run.step_time > 0

    def test_every_rejection_matches_launch_error(self, result):
        """Rejected layouts fail the launch path with the same message."""
        assert result.rejected, "expected some rejections at world=4"
        for rej in result.rejected:
            if "GiB" in rej.reason:
                continue  # memory-feasibility is a planner-only gate
            with pytest.raises(ConfigError) as err:
                run_cfg = result.config.training_config(rej.layout)
                run_cfg.resolve_strategy().validate(run_cfg)
            assert str(err.value) == rej.reason

    def test_overlap_knob_is_clamped_for_pipeline_layouts(self, result):
        """Pipeline strategies reject ``overlap_chunks > 1`` at launch; the
        planner prices and launches them at 1, so the knob changes neither
        which layouts are emitted nor any rejection reason."""
        wide = search_plans(_planner(overlap_chunks=4))
        assert {c.layout for c in wide.candidates} == {
            c.layout for c in result.candidates
        }
        assert wide.rejected == result.rejected
        for cand in wide.candidates:
            run_cfg = wide.config.training_config(cand.layout)
            assert run_cfg.overlap_chunks == (1 if cand.layout.pp_size > 1 else 4)
            run_cfg.resolve_strategy().validate(run_cfg)

    @pytest.mark.parametrize(
        "config",
        [_planner(load_imbalance=1.25, num_microbatches=4),
         _planner(load_imbalance=1.25, num_microbatches=4, overlap_chunks=4),
         PlannerConfig(model=small_config(num_experts=64), num_nodes=512,
                       cluster="sunway", micro_batch=4, seq_len=32,
                       load_imbalance=1.03)],
        ids=["w4-overlap1", "w4-overlap4", "sunway-512"],
    )
    def test_priced_plan_equals_the_deleted_translator(self, config):
        """Reference for the removed ``PlannerConfig.parallel_plan``: every
        field it set, spelled out, at non-default values, so a field the
        derived plan drops or renames fails here."""
        result = search_plans(config)
        assert result.candidates
        for cand in result.candidates:
            lay = cand.layout
            assert cand.plan == ParallelPlan(
                num_nodes=lay.world_size,
                ep_size=lay.ep_size,
                tp_size=lay.tp_size,
                pp_size=lay.pp_size,
                zero_shards=lay.zero_shards,
                micro_batch=config.micro_batch,
                seq_len=config.seq_len,
                num_microbatches=config.num_microbatches,
                load_imbalance=config.load_imbalance,
                overlap_chunks=1 if lay.pp_size > 1 else config.overlap_chunks,
            )
            assert cand.plan == replace(
                cand.run_config.plan, load_imbalance=config.load_imbalance
            )
            assert cand.strategy == cand.run_config.resolve_strategy().name

    def test_ranking_is_deterministic(self, result):
        again = search_plans(_planner())
        assert [
            (c.layout, c.strategy, c.predicted_step_time)
            for c in again.candidates
        ] == [
            (c.layout, c.strategy, c.predicted_step_time)
            for c in result.candidates
        ]
        assert again.rejected == result.rejected

    def test_ranking_sorted_by_predicted_time(self, result):
        times = [c.predicted_step_time for c in result.candidates]
        assert times == sorted(times)

    def test_memory_gate_rejects_oversized_models(self):
        # Brain-scale config on 2 laptop nodes: nothing fits.
        from repro.models import bagualu_14_5t

        result = search_plans(
            PlannerConfig(model=bagualu_14_5t(), num_nodes=2, cluster="toy",
                          seq_len=2048)
        )
        assert not result.candidates
        assert any("GiB" in r.reason for r in result.rejected)

    def test_unknown_cluster_rejected(self):
        with pytest.raises(ConfigError, match="unknown cluster preset"):
            PlannerConfig(model=TINY4, num_nodes=4, cluster="nope")


class TestVerification:
    @pytest.fixture(scope="class")
    def verified(self):
        model = tiny_config(num_experts=8)
        return plan_layouts(model, num_nodes=8, cluster="toy")

    def test_topk_measured(self, verified):
        assert len(verified.verified) == 2
        for v in verified.verified:
            assert v.measured_step_time > 0
            assert v.predicted_step_time == v.candidate.predicted_step_time

    def test_median_error_within_bound(self, verified):
        """The planner's accuracy contract (ISSUE acceptance: <= 25%)."""
        assert verified.median_relative_error is not None
        assert verified.median_relative_error <= 0.25

    def test_calibration_feeds_back_into_ranking(self, verified):
        assert verified.calibration is not None
        assert 0.01 <= verified.calibration.efficiency <= 1.0
        # The anchor (top-ranked) candidate is reproduced ~exactly.
        anchor = verified.verified[0]
        assert anchor.calibrated_relative_error == pytest.approx(0.0, abs=1e-9)
        # The full ranking is re-priced with the fitted machine.
        assert len(verified.recalibrated) == len(verified.candidates)
        repriced = {c.layout: c.predicted_step_time for c in verified.recalibrated}
        assert repriced.keys() == {
            c.layout for c in verified.candidates
        }

    def test_best_prefers_measured_winner(self, verified):
        fastest = min(verified.verified, key=lambda v: v.measured_step_time)
        assert verified.best is fastest.candidate

    def test_no_verify_skips_measured_runs(self):
        """``plan --no-verify`` ranks only: the search result carries no
        measurements."""
        result = search_plans(_planner())
        assert result.verified == ()
        assert result.calibration is None
        assert result.median_relative_error is None

    def test_facade_passes_every_planner_field_through(self, monkeypatch):
        """``overlap_chunks`` was the field the facade's copied parameter
        list could not pass."""
        import repro.plan.verify as verify_module

        monkeypatch.setattr(verify_module, "verify_plans", lambda result, **_: result)
        result = plan_layouts(TINY4, num_nodes=4, cluster="toy", overlap_chunks=2)
        assert result == search_plans(_planner(overlap_chunks=2))
        assert {c.plan.overlap_chunks for c in result.candidates} == {1, 2}

    def test_verify_launches_the_priced_run(self, monkeypatch):
        import repro.plan.verify as verify_module

        launched = []

        def record(cfg, network, machine):
            launched.append(cfg)
            return SimpleNamespace(step_time=1.0)

        monkeypatch.setattr(verify_module, "run_distributed_training", record)
        config = _planner(load_imbalance=1.25, overlap_chunks=2)
        result = verify_plans(search_plans(config), top_k=3, num_steps=5)
        top = result.candidates[:3]
        assert launched == [replace(c.run_config, num_steps=5) for c in top]
        for cfg, cand in zip(launched, top):
            assert replace(cfg.plan, load_imbalance=1.25) == cand.plan


class TestValidationDriftGuards:
    """One shared implementation -> identical messages everywhere."""

    def test_tp_message_identical_across_spines(self):
        model = tiny_config(n_layers=4, moe_every=2)  # d_ff=64
        layout = ParallelLayout(world_size=6, tp_size=3, ep_size=1)
        with pytest.raises(ConfigError) as direct:
            validate_layout_for_model(layout, model)
        with pytest.raises(ConfigError) as analytic:
            ParallelPlan(num_nodes=6, ep_size=1, tp_size=3,
                         seq_len=16).validate_against(model)
        assert str(direct.value) == str(analytic.value)
        assert "tp_size=3 must divide d_ff=64" in str(direct.value)

    def test_pp_message_identical_across_spines(self):
        model = tiny_config()  # 2 layers
        layout = ParallelLayout(world_size=8, pp_size=4)
        with pytest.raises(ConfigError) as direct:
            validate_layout_for_model(layout, model)
        with pytest.raises(ConfigError) as analytic:
            ParallelPlan(num_nodes=8, ep_size=1, pp_size=4,
                         seq_len=16).validate_against(model)
        assert str(direct.value) == str(analytic.value)
        assert "cannot split 2 layers into 4 pipeline stages" in str(direct.value)

    def test_expert_granularity_modes(self):
        model = tiny_config(num_experts=4)
        layout = ParallelLayout(world_size=8, ep_size=8)
        # Runner-side: a rank holds a slice of every layer's experts.
        with pytest.raises(ConfigError, match="must divide num_experts"):
            validate_layout_for_model(layout, model, expert_granularity="layer")
        # Analytic side: instances span layers (2 layers x 4 experts = 8).
        validate_layout_for_model(layout, model, expert_granularity="instance")
        with pytest.raises(ConfigError, match="expert_granularity"):
            validate_layout_for_model(layout, model, expert_granularity="bogus")


class TestClusterPresets:
    def test_known_presets(self):
        assert {"sunway", "flat", "toy"} <= set(CLUSTER_PRESETS)
        for name, preset in CLUSTER_PRESETS.items():
            assert preset.name == name
            net = preset.network(4)
            machine = preset.machine(4)
            assert machine.num_nodes == 4
            assert net.allreduce_time(1024, [0, 1, 2, 3]) > 0

    def test_unknown_preset_raises(self):
        with pytest.raises(TopologyError, match="unknown cluster preset"):
            cluster_preset("hyperscale")

    def test_sweeps_use_shared_preset(self):
        """The sweep prices on the preset table's sunway builder."""
        from repro.perf.sweep import weak_scaling_rows

        cfg = tiny_config()
        machine = sunway_machine(8)
        rows = weak_scaling_rows(cfg, machine, [4, 8], ep_size=2)
        network = cluster_preset("sunway").network(8)
        plan = ParallelPlan(num_nodes=8, ep_size=2, seq_len=cfg.max_seq_len)
        assert rows[1]["step_time_s"] == StepModel(cfg, machine, network).step_time(plan)


class TestStepModelNewTerms:
    MODEL = tiny_config(n_layers=4, moe_every=2, num_experts=4)
    MACHINE = laptop_machine(8)
    NET = sunway_network(8, supernode_size=4)

    def _bd(self, **plan_kw):
        plan = ParallelPlan(num_nodes=8, micro_batch=4, seq_len=16, **plan_kw)
        return StepModel(self.MODEL, self.MACHINE, self.NET).step_breakdown(plan)

    def test_pipeline_terms(self):
        bd = self._bd(ep_size=1, pp_size=2, num_microbatches=2)
        assert bd.pipeline_p2p > 0
        assert bd.pipeline_bubble > 0
        # GPipe bubble: (pp-1)/m of the per-stage compute.
        assert bd.pipeline_bubble == pytest.approx(bd.compute / 2)
        flat = self._bd(ep_size=1)
        assert flat.pipeline_p2p == 0 and flat.pipeline_bubble == 0

    def test_more_microbatches_shrink_bubble(self):
        few = self._bd(ep_size=1, pp_size=2, num_microbatches=2)
        many = self._bd(ep_size=1, pp_size=2, num_microbatches=4)
        assert many.pipeline_bubble < few.pipeline_bubble

    def test_zero_term(self):
        bd = self._bd(ep_size=1, zero_shards=4)
        assert bd.zero_allgather > 0
        assert self._bd(ep_size=1).zero_allgather == 0

    def test_tp_terms(self):
        bd = self._bd(ep_size=1, tp_size=2)
        assert bd.tp_allreduce > 0
        # TP shards the dense-FFN matmuls -> less dense compute per rank.
        assert bd.dense_compute < self._bd(ep_size=1).dense_compute

    def test_total_includes_bubble(self):
        bd = self._bd(ep_size=1, pp_size=2, num_microbatches=2)
        assert bd.total == pytest.approx(
            bd.compute + bd.communication + bd.pipeline_bubble
        )

    def test_calibration_recovers_truth_with_pipeline(self):
        """The bubble sits on the fitted side: closed-form stays exact."""
        plan = ParallelPlan(num_nodes=8, ep_size=1, pp_size=2,
                            num_microbatches=2, micro_batch=4, seq_len=16)
        from dataclasses import replace

        truth = 0.37
        m = laptop_machine(8)
        m_true = replace(m, compute_efficiency=truth)
        measured = StepModel(self.MODEL, m_true, self.NET).step_time(plan)
        fit = calibrate_efficiency(self.MODEL, m, self.NET, plan, measured)
        assert fit.efficiency == pytest.approx(truth, rel=1e-6)


class TestPlanReport:
    @pytest.fixture(scope="class")
    def result(self):
        return plan_layouts(tiny_config(num_experts=8), num_nodes=8, cluster="toy")

    def test_report_is_byte_stable(self, result):
        again = plan_layouts(tiny_config(num_experts=8), num_nodes=8, cluster="toy")
        assert build_plan_report(result) == build_plan_report(again)

    def test_report_sections(self, result):
        report = build_plan_report(result, title="T")
        for heading in ("# T", "## Planner", "## Ranked candidates",
                        "## Verified candidates", "## Calibration",
                        "## Rejected layouts"):
            assert heading in report

    def test_records_are_typed(self, result):
        records = plan_records(result)
        kinds = {r["record"] for r in records}
        assert kinds == {"plan_summary", "plan_candidate", "plan_verified",
                         "plan_calibration", "plan_rejected"}
        summary = records[0]
        assert summary["num_candidates"] == len(result.candidates)
        cand = next(r for r in records if r["record"] == "plan_candidate")
        assert {"dp", "tp", "pp", "ep", "zero", "strategy",
                "predicted_step_time"} <= set(cand)

    def test_cli_plan_smoke(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "plan.md"
        metrics = tmp_path / "plan.jsonl"
        code = main(["plan", "--nodes", "4", "--top-k", "1", "--steps", "1",
                     "--out", str(out), "--metrics", str(metrics)])
        assert code == 0
        assert "## Planner" in out.read_text()
        assert metrics.read_text().startswith('{"cluster"')
