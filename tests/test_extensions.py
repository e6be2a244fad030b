"""Extension features: evaluation, phase timing, overlap knob,
multi-domain corpus, optimizer-state distributed checkpoints."""

import numpy as np
import pytest

from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import CheckpointError, ConfigError
from repro.hardware import sunway_machine
from repro.models import bagualu_14_5t, build_model, tiny_config
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
from repro.train import Adam, Trainer


class TestEvaluate:
    def _setup(self):
        cfg = tiny_config()
        model = build_model(cfg, seed=1)
        corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, predictability=0.9, seed=2)
        loader = ShardedLoader(corpus, 4, 8)
        trainer = Trainer(model, Adam(model.parameters(), lr=3e-3))
        return model, loader, trainer

    def test_returns_loss_and_perplexity(self):
        _, loader, trainer = self._setup()
        metrics = trainer.evaluate(loader, 3)
        assert metrics["perplexity"] == pytest.approx(np.exp(metrics["loss"]), rel=1e-6)
        assert metrics["loss"] > 0

    def test_does_not_touch_grads_or_steps(self):
        model, loader, trainer = self._setup()
        trainer.evaluate(loader, 2)
        assert trainer.step_count == 0
        assert all(p.grad is None for p in model.parameters())

    def test_restores_training_mode(self):
        model, loader, trainer = self._setup()
        trainer.evaluate(loader, 1)
        assert model.training

    def test_eval_improves_with_training(self):
        _, loader, trainer = self._setup()
        eval_loader = ShardedLoader(
            SyntheticCorpus(vocab_size=128, predictability=0.9, seed=2), 4, 8,
        )
        before = trainer.evaluate(eval_loader, 3, start_step=1000)["loss"]
        trainer.fit(loader, 40)
        after = trainer.evaluate(eval_loader, 3, start_step=1000)["loss"]
        assert after < before

    def test_invalid_steps(self):
        _, loader, trainer = self._setup()
        with pytest.raises(ConfigError):
            trainer.evaluate(loader, 0)


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


class TestMultiDomainCorpus:
    def test_single_domain_backward_compatible(self):
        c = SyntheticCorpus(vocab_size=64, seed=1)
        assert c.num_domains == 1
        assert np.array_equal(c.successor, c.successors[0])

    def test_domains_have_distinct_tables(self):
        c = SyntheticCorpus(vocab_size=64, seed=1, num_domains=4)
        assert not np.array_equal(c.successors[0], c.successors[1])

    def test_stream_follows_its_domain_table(self):
        c = SyntheticCorpus(vocab_size=32, predictability=1.0, seed=2, num_domains=3)
        for stream in range(5):
            s = c.sample(200, stream=stream)
            table = c.successors[c.domain_of_stream(stream)]
            follows = sum(s[i + 1] == table[s[i]] for i in range(len(s) - 1))
            assert follows == len(s) - 1

    def test_domains_assigned_stably(self):
        c = SyntheticCorpus(vocab_size=32, seed=2, num_domains=3)
        assert c.domain_of_stream(7) == c.domain_of_stream(7)

    def test_multiple_domains_used(self):
        c = SyntheticCorpus(vocab_size=32, seed=2, num_domains=3)
        domains = {c.domain_of_stream(s) for s in range(50)}
        assert len(domains) == 3

    def test_invalid(self):
        with pytest.raises(ConfigError):
            SyntheticCorpus(num_domains=0)


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
