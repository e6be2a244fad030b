"""Distributed checkpointing: sharded save, layout-independent restore."""

import numpy as np
import pytest

from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import CheckpointError
from repro.models import tiny_config
from repro.parallel import (
    MoDaTrainer,
    ParallelLayout,
    build_groups,
    build_moda_model,
    dense_state,
    global_expert_state,
    load_distributed,
    named_optimizer_state,
    save_distributed,
)
from repro.simmpi import run_spmd
from repro.train import Adam

CFG = tiny_config(num_experts=4)


def _save_run(tmp_path, world, ep, seed=21, perturb=False):
    """Train-free save: build, optionally perturb deterministically, save."""

    def program(comm):
        groups = build_groups(comm, ParallelLayout(comm.size, ep))
        model = build_moda_model(CFG, groups, seed=seed)
        if perturb:
            for name, p in model.named_parameters():
                p.data = p.data + 0.001  # recognizable change
        save_distributed(tmp_path / "ckpt", model, groups, step=7)
        return global_expert_state(model), dense_state(model)

    return run_spmd(program, world, timeout=300)


def _load_run(tmp_path, world, ep, seed=99):
    def program(comm):
        groups = build_groups(comm, ParallelLayout(comm.size, ep))
        model = build_moda_model(CFG, groups, seed=seed)  # different init
        meta = load_distributed(tmp_path / "ckpt", model)
        return meta, global_expert_state(model), dense_state(model)

    return run_spmd(program, world, timeout=300)


class TestSaveLoadSameLayout:
    def test_roundtrip(self, tmp_path):
        saved = _save_run(tmp_path, world=4, ep=2)
        loaded = _load_run(tmp_path, world=4, ep=2)
        meta = loaded.returns[0][0]
        assert meta["step"] == 7
        assert meta["ep_size"] == 2
        # Dense params restored identically on every rank.
        ref_dense = saved.returns[0][1]
        for _, _, dense in loaded.returns:
            for k, v in dense.items():
                assert np.array_equal(v, ref_dense[k]), k

    def test_expert_shards_restored(self, tmp_path):
        saved = _save_run(tmp_path, world=4, ep=2)
        loaded = _load_run(tmp_path, world=4, ep=2)
        ref_experts = {}
        for experts, _ in saved.returns:
            ref_experts.update(experts)
        got_experts = {}
        for _, experts, _ in loaded.returns:
            got_experts.update(experts)
        assert set(got_experts) == set(ref_experts)
        for k in ref_experts:
            assert np.array_equal(got_experts[k], ref_experts[k]), k

    def test_checkpoint_files_layout(self, tmp_path):
        _save_run(tmp_path, world=4, ep=2)
        d = tmp_path / "ckpt"
        assert (d / "dense.npz").exists()
        assert (d / "meta.json").exists()
        assert (d / "experts_0of2.npz").exists()
        assert (d / "experts_1of2.npz").exists()


class TestResharding:
    @pytest.mark.parametrize("save_ep,load_world,load_ep", [
        (4, 2, 2),   # shrink EP width
        (2, 4, 4),   # grow EP width
        (4, 1, 1),   # collapse to a single process
    ])
    def test_reshard(self, tmp_path, save_ep, load_world, load_ep):
        saved = _save_run(tmp_path, world=save_ep, ep=save_ep)
        ref_experts = {}
        for experts, _ in saved.returns:
            ref_experts.update(experts)
        ref_dense = saved.returns[0][1]

        loaded = _load_run(tmp_path, world=load_world, ep=load_ep)
        got_experts = {}
        for _, experts, dense in loaded.returns:
            got_experts.update(experts)
            for k, v in dense.items():
                assert np.array_equal(v, ref_dense[k]), k
        assert set(got_experts) == set(ref_experts)
        for k in ref_experts:
            assert np.array_equal(got_experts[k], ref_experts[k]), k

    def test_forward_identical_after_reshard(self, tmp_path):
        """The restored model computes the same function under a new layout."""
        _save_run(tmp_path, world=4, ep=4, perturb=True)
        rng = np.random.default_rng(0)
        tokens = rng.integers(0, CFG.vocab_size, size=(2, 8))

        def forward_program(comm, ep):
            groups = build_groups(comm, ParallelLayout(comm.size, ep))
            model = build_moda_model(CFG, groups, seed=123)
            load_distributed(tmp_path / "ckpt", model)
            out = model(tokens)
            return out.data

        res4 = run_spmd(lambda c: forward_program(c, 4), 4, timeout=300)
        res2 = run_spmd(lambda c: forward_program(c, 2), 2, timeout=300)
        assert np.allclose(res4.returns[0], res2.returns[0], atol=1e-5)


def _train_save_run(tmp_path, world, ep, steps=2, seed=11):
    """Train a few MoDa steps so Adam accumulates real m/v state, save
    params + optimizer, and return each rank's global-named state."""

    def program(comm):
        groups = build_groups(comm, ParallelLayout(comm.size, ep))
        model = build_moda_model(CFG, groups, seed=seed)
        optimizer = Adam(model.parameters(), lr=1e-3)
        trainer = MoDaTrainer(model, optimizer, groups)
        corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.9, seed=seed)
        loader = ShardedLoader(corpus, 2, 8, dp_rank=comm.rank, dp_size=comm.size)
        for step in range(steps):
            trainer.train_step(loader.get_batch(step))
        save_distributed(tmp_path / "ckpt", model, groups, step=steps, optimizer=optimizer)
        return named_optimizer_state(model, optimizer)

    return run_spmd(program, world, timeout=300)


def _load_optimizer_run(tmp_path, world, ep, seed=77):
    def program(comm):
        groups = build_groups(comm, ParallelLayout(comm.size, ep))
        model = build_moda_model(CFG, groups, seed=seed)  # different init
        optimizer = Adam(model.parameters(), lr=1e-3)
        meta = load_distributed(tmp_path / "ckpt", model, optimizer=optimizer)
        return meta, named_optimizer_state(model, optimizer)

    return run_spmd(program, world, timeout=300)


def _union(states):
    merged = {}
    for state in states:
        for key, value in state.items():
            if key == "step_count":
                merged[key] = value
            else:
                merged.setdefault(key, value)
    return merged


class TestOptimizerStateReshard:
    """Adam m/v/master state rides the same global-name reshard as params."""

    @pytest.mark.parametrize("load_world,load_ep", [(4, 4), (2, 2), (1, 1)])
    def test_state_bitwise_across_layouts(self, tmp_path, load_world, load_ep):
        saved = _train_save_run(tmp_path, world=4, ep=4)
        ref = _union(saved.returns)
        loaded = _load_optimizer_run(tmp_path, world=load_world, ep=load_ep)
        got = _union(state for _, state in loaded.returns)
        assert set(got) == set(ref)
        assert got["step_count"] == ref["step_count"] == 2
        for key in ref:
            if key == "step_count":
                continue
            assert np.array_equal(got[key], ref[key]), key

    def test_meta_records_manifest(self, tmp_path):
        _train_save_run(tmp_path, world=4, ep=2)
        import json

        meta = json.loads((tmp_path / "ckpt" / "meta.json").read_text())
        assert meta["format"] == 2
        assert "dense.npz" in meta["files"]
        assert "optim_dense.npz" in meta["files"]
        assert "optim_experts_0of2.npz" in meta["files"]

    def test_load_without_optimizer_files(self, tmp_path):
        _save_run(tmp_path, world=2, ep=2)  # param-only snapshot

        def program(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(CFG, groups, seed=0)
            optimizer = Adam(model.parameters(), lr=1e-3)
            load_distributed(tmp_path / "ckpt", model, optimizer=optimizer)

        with pytest.raises(CheckpointError, match="optim"):
            run_spmd(program, 2, timeout=60)


class TestElasticResumeTrajectory:
    """Satellite acceptance: save at ep=4, restore at ep=2 and ep=1, and
    the continued loss trajectory reproduces an undisturbed ep=4 run
    exactly (fold-carry elastic accumulation + resharded optimizer)."""

    def _segment(self, ckpt_dir, world, ep, total, resume=None, every=3):
        from repro.parallel import TrainingRunConfig
        from repro.resilience import SegmentProgress, SegmentSpec, run_elastic_segment

        run_cfg = TrainingRunConfig(
            model=CFG, world_size=world, ep_size=ep, num_steps=total,
            batch_size=2, seq_len=8, seed=0, model_compute_time=False,
        )
        spec = SegmentSpec(
            run_cfg=run_cfg, logical_world=4, logical_ep=4,
            checkpoint_every=every, checkpoint_dir=str(ckpt_dir),
            resume_dir=resume, progress=SegmentProgress(), machine=None,
        )
        return run_spmd(run_elastic_segment, world, args=(spec,), timeout=300).returns[0]

    @pytest.mark.parametrize("world,ep", [(2, 2), (1, 1)])
    def test_resume_matches_undisturbed(self, tmp_path, world, ep):
        ref = self._segment(tmp_path / "full", 4, 4, total=6)
        res = self._segment(
            tmp_path / "resumed", world, ep, total=6,
            resume=str(tmp_path / "full" / "step-000003"),
        )
        assert res["start"] == 3
        # Exact equality: forward is row-independent under resharding, and
        # the fold-carry accumulation reproduces the full-world reductions.
        assert res["losses"] == ref["losses"][3:]


class TestErrors:
    def test_missing_checkpoint(self, tmp_path):
        def program(comm):
            groups = build_groups(comm, ParallelLayout(comm.size))
            model = build_moda_model(CFG, groups, seed=0)
            load_distributed(tmp_path / "nope", model)

        with pytest.raises(CheckpointError):
            run_spmd(program, 1, timeout=60)

    def test_missing_expert_shard(self, tmp_path):
        _save_run(tmp_path, world=2, ep=2)
        # Remove one expert shard: loading must fail with a clear error.
        (tmp_path / "ckpt" / "experts_1of2.npz").unlink()

        def program(comm):
            groups = build_groups(comm, ParallelLayout(comm.size))
            model = build_moda_model(CFG, groups, seed=0)
            load_distributed(tmp_path / "ckpt", model)

        with pytest.raises(CheckpointError, match="not found in any shard"):
            run_spmd(program, 1, timeout=60)
