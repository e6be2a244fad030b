"""Extension features: phase timing, overlap knob, the corpus's successor
table, optimizer-state distributed checkpoints."""

import numpy as np
import pytest

from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t, tiny_config
from repro.network import sunway_network
from repro.parallel import (
    MoDaTrainer,
    ParallelLayout,
    build_groups,
    build_moda_model,
    load_distributed,
    save_distributed,
)
from repro.perf import ParallelPlan, StepModel
from repro.simmpi import run_spmd
from repro.train import Adam
from repro.utils import derive_seed


class TestPhaseTiming:
    def test_extras_populated_and_consistent(self):
        cfg = tiny_config(num_experts=4)

        def program(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(cfg, groups, seed=3)
            trainer = MoDaTrainer(model, Adam(model.parameters(), lr=1e-3), groups)
            corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, seed=1)
            loader = ShardedLoader(corpus, 2, 8, dp_rank=comm.rank, dp_size=comm.size)
            res = trainer.train_step(loader.get_batch(0))
            return res.extras

        out = run_spmd(program, 4, network=sunway_network(4), timeout=300)
        for extras in out.returns:
            assert set(extras) == {"t_forward", "t_backward", "t_grad_sync"}
            assert all(v >= 0 for v in extras.values())
            # Communication happened in every phase of a distributed step.
            assert extras["t_grad_sync"] > 0


class TestOverlapKnob:
    def test_overlap_reduces_step_time(self):
        cfg = bagualu_14_5t()
        sm = StepModel(cfg, sunway_machine(96000), sunway_network(96000))
        base = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=1, seq_len=2048)
        lap = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=1, seq_len=2048,
                           overlap=1.0)
        assert sm.step_time(lap) < sm.step_time(base)

    def test_full_overlap_hides_at_most_sync(self):
        cfg = bagualu_14_5t()
        sm = StepModel(cfg, sunway_machine(96000), sunway_network(96000))
        base = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=1, seq_len=2048)
        lap = ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=1, seq_len=2048,
                           overlap=1.0)
        bd = sm.step_breakdown(base)
        saved = sm.step_time(base) - sm.step_time(lap)
        assert saved <= bd.dense_allreduce + bd.expert_allreduce + 1e-9

    def test_overlap_monotone(self):
        cfg = bagualu_14_5t()
        sm = StepModel(cfg, sunway_machine(96000), sunway_network(96000))
        times = [
            sm.step_time(
                ParallelPlan(num_nodes=96000, ep_size=96000, micro_batch=1,
                             seq_len=2048, overlap=o)
            )
            for o in (0.0, 0.5, 1.0)
        ]
        assert times[0] >= times[1] >= times[2]

    def test_invalid_overlap(self):
        with pytest.raises(ConfigError):
            ParallelPlan(num_nodes=4, ep_size=4, overlap=1.5)


class TestSuccessorTable:
    def test_table_is_the_seeded_permutation(self):
        """The one successor table is the stream the per-domain tables drew
        domain 0 from, so every corpus keeps its tokens."""
        c = SyntheticCorpus(vocab_size=64, seed=1)
        expected = np.random.default_rng(derive_seed(1, "succ-table", 0)).permutation(64)
        assert np.array_equal(c.successor, expected)


class TestOptimizerDistCheckpoint:
    CFG = tiny_config(num_experts=4)

    def _train_and_save(self, tmp_path, comm):
        groups = build_groups(comm, ParallelLayout(comm.size, 2))
        model = build_moda_model(self.CFG, groups, seed=5)
        opt = Adam(model.parameters(), lr=1e-3)
        trainer = MoDaTrainer(model, opt, groups)
        corpus = SyntheticCorpus(vocab_size=self.CFG.vocab_size, seed=1)
        loader = ShardedLoader(corpus, 2, 8, dp_rank=comm.rank, dp_size=comm.size)
        for s in range(2):
            trainer.train_step(loader.get_batch(s))
        save_distributed(tmp_path / "ckpt", model, groups, step=2, optimizer=opt)
        return opt.state_dict()

    def test_optimizer_roundtrip(self, tmp_path):
        def save_program(comm):
            state = self._train_and_save(tmp_path, comm)
            return sorted(state)

        saved = run_spmd(save_program, 4, timeout=300)

        def load_program(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(self.CFG, groups, seed=77)
            opt = Adam(model.parameters(), lr=1e-3)
            load_distributed(tmp_path / "ckpt", model, optimizer=opt)
            return opt.step_count

        loaded = run_spmd(load_program, 4, timeout=300)
        assert all(c == 2 for c in loaded.returns)
        assert saved.returns[0]  # state keys existed

    def test_optimizer_restore_across_world_sizes(self, tmp_path):
        # Format 2 keys optimizer slots by global parameter name, so a
        # world-4 snapshot restores into a world-2 run (the elastic path).
        run_spmd(lambda c: self._train_and_save(tmp_path, c), 4, timeout=300)

        def shrunk_load(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(self.CFG, groups, seed=0)
            opt = Adam(model.parameters(), lr=1e-3)
            load_distributed(tmp_path / "ckpt", model, optimizer=opt)
            return opt.step_count

        loaded = run_spmd(shrunk_load, 2, timeout=300)
        assert loaded.returns == [2, 2]

    def test_optimizer_restore_without_coords(self, tmp_path):
        run_spmd(lambda c: self._train_and_save(tmp_path, c), 4, timeout=300)

        def load_no_coords(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(self.CFG, groups, seed=0)
            opt = Adam(model.parameters(), lr=1e-3)
            load_distributed(tmp_path / "ckpt", model, optimizer=opt)
            return opt.step_count

        loaded = run_spmd(load_no_coords, 4, timeout=300)
        assert all(c == 2 for c in loaded.returns)
