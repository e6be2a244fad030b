"""The full user workflow in one story:

train distributed -> evaluate distributed -> save sharded checkpoint ->
restore under a different EP layout -> continue training -> generate text.

Every transition preserves the numbers it should preserve.
"""

import numpy as np
import pytest

from repro.data import ShardedLoader, SyntheticCorpus
from repro.models import generate, tiny_config
from repro.parallel import (
    MoDaTrainer,
    ParallelLayout,
    build_groups,
    build_moda_model,
    load_distributed,
    save_distributed,
)
from repro.simmpi import run_spmd
from repro.train import Adam

CFG = tiny_config(num_experts=4)
SEED = 31


def _corpus():
    return SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.95, seed=5)


class TestFullWorkflow:
    def test_train_eval_checkpoint_reshard_generate(self, tmp_path):
        ckpt = tmp_path / "ckpt"

        # ---- Phase 1: train on 4 ranks (ep=2), evaluate, checkpoint ----
        def phase1(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(CFG, groups, seed=SEED)
            opt = Adam(model.parameters(), lr=3e-3)
            trainer = MoDaTrainer(model, opt, groups)
            loader = ShardedLoader(_corpus(), 4, 8, dp_rank=comm.rank,
                                   dp_size=comm.size)
            for step in range(6):
                trainer.train_step(loader.get_batch(step))
            eval_loader = ShardedLoader(_corpus(), 4, 8, dp_rank=comm.rank,
                                        dp_size=comm.size)
            metrics = trainer.evaluate(eval_loader, 2, start_step=500)
            save_distributed(ckpt, model, groups, step=6, optimizer=opt)
            return metrics

        res1 = run_spmd(phase1, 4, timeout=600)
        m0 = res1.returns[0]
        # Every rank reports the same global metrics.
        for m in res1.returns[1:]:
            assert m["loss"] == pytest.approx(m0["loss"])
        assert m0["perplexity"] == pytest.approx(np.exp(m0["loss"]), rel=1e-6)

        # ---- Phase 2: restore on 2 ranks (ep=2 resharded), eval again ----
        def phase2(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(CFG, groups, seed=99)  # wrong init
            load_distributed(ckpt, model)
            trainer = MoDaTrainer(model, Adam(model.parameters(), lr=3e-3),
                                  groups, sync_initial_params=False)
            eval_loader = ShardedLoader(_corpus(), 4, 8, dp_rank=comm.rank,
                                        dp_size=comm.size)
            return trainer.evaluate(eval_loader, 2, start_step=500)

        res2 = run_spmd(phase2, 2, timeout=600)
        # Different world size => different eval shards; the *model* is the
        # same, so eval loss must be close (same distribution), and keep
        # the trained-model advantage over a fresh one.
        assert abs(res2.returns[0]["loss"] - m0["loss"]) < 0.3

        # ---- Phase 3: continue training from the checkpoint ----
        def phase3(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(CFG, groups, seed=99)
            opt = Adam(model.parameters(), lr=3e-3)
            load_distributed(ckpt, model, optimizer=opt)
            trainer = MoDaTrainer(model, opt, groups, sync_initial_params=False)
            trainer.step_count = 6
            loader = ShardedLoader(_corpus(), 4, 8, dp_rank=comm.rank,
                                   dp_size=comm.size)
            losses = [trainer.train_step(loader.get_batch(s)).global_loss
                      for s in range(6, 10)]
            return losses, model.state_dict()

        res3 = run_spmd(phase3, 4, timeout=600)
        losses3 = res3.returns[0][0]
        assert all(np.isfinite(v) for v in losses3)

        # ---- Phase 4: single-process generation from the final model ----
        def build_single(comm):
            groups = build_groups(comm, ParallelLayout(comm.size))
            model = build_moda_model(CFG, groups, seed=0)
            load_distributed(ckpt, model)
            return model

        model = run_spmd(build_single, 1, timeout=300).returns[0]
        corpus = _corpus()
        prompt = np.array([[int(corpus.sample(1)[0])]])
        out = generate(model, prompt, 12, greedy=True)
        assert out.shape == (1, 13)
        # The trained model should mostly follow the learned successor rule.
        follows = sum(
            out[0, i + 1] == corpus.successor[out[0, i]]
            for i in range(out.shape[1] - 1)
        )
        assert follows >= 6

    def test_distributed_eval_validation(self):
        def program(comm):
            groups = build_groups(comm, ParallelLayout(comm.size, 2))
            model = build_moda_model(CFG, groups, seed=1)
            trainer = MoDaTrainer(model, Adam(model.parameters(), lr=1e-3), groups)
            loader = ShardedLoader(_corpus(), 2, 8, dp_rank=comm.rank,
                                   dp_size=comm.size)
            from repro.errors import ConfigError

            try:
                trainer.evaluate(loader, 0)
            except ConfigError:
                # All ranks raise together (no collective was issued).
                return "raised"
            return "no-raise"

        res = run_spmd(program, 4, timeout=300)
        assert res.returns == ["raised"] * 4
