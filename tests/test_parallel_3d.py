"""3D parallelism (pipe x data x expert): grid math, training, equivalence."""

import numpy as np
import pytest

from repro.data import Batch, ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.models import build_model, tiny_config
from repro.parallel import (
    MoDaTrainer,
    ParallelLayout,
    Trainer3D,
    build_groups,
    build_moda_model,
)
from repro.simmpi import run_spmd
from repro.train import Adam, SGD

CFG = tiny_config(n_layers=4, num_experts=4, aux_weight=0.0)
#: Every token reaches every expert: routing has no top-k choice to make.
CFG_ALL_EXPERTS = tiny_config(n_layers=4, num_experts=4, top_k=4, aux_weight=0.0)


class TestLayoutAs3DGrid:
    """The pipe x data x expert grid is a :class:`ParallelLayout` with tp = 1."""

    def test_layout(self):
        g = ParallelLayout(world_size=8, pp_size=2, ep_size=2)
        assert g.plane_size == 4
        assert g.dp_size == 2
        assert g.stage_of(5) == 1
        assert g.ep_rank_of(5) == 1

    def test_degenerate_grids(self):
        assert ParallelLayout(4).plane_size == 4             # pure DP
        assert ParallelLayout(4, pp_size=4).plane_size == 1  # pure pipeline
        assert ParallelLayout(4, ep_size=4).dp_size == 1     # pure EP

    def test_invalid(self):
        with pytest.raises(ConfigError):
            ParallelLayout(world_size=6, pp_size=4)
        with pytest.raises(ConfigError):
            ParallelLayout(world_size=8, pp_size=2, ep_size=3)


def _groups(comm, pipe, ep):
    return build_groups(comm, ParallelLayout(comm.size, ep_size=ep, pp_size=pipe))


class TestGroups3D:
    def test_communicator_shapes(self):
        def program(comm):
            g = _groups(comm, 2, 2)
            return (
                g.pipe.size, g.plane.size, g.ep.size,
                g.edp.size, g.pipe.rank, g.pipeline_id,
            )

        res = run_spmd(program, 8, timeout=300)
        for r, (pipe, plane, ep, edp, stage, pid) in enumerate(res.returns):
            assert pipe == 2
            assert plane == 4
            assert ep == 2
            assert edp == 2
            assert stage == r // 4
            assert pid == r % 4

    def test_communicator_ranks_are_layout_coordinates(self):
        """Every rank of a world-8 pp2 x dp2 x ep2: the communicators'
        ranks are exactly the shared layout's rank coordinates."""

        def program(comm):
            g = _groups(comm, 2, 2)
            return g.layout, g.pipe.rank, g.ep.rank, g.edp.rank

        res = run_spmd(program, 8, timeout=300)
        for r, (layout, stage, ep_rank, dp_index) in enumerate(res.returns):
            assert layout == ParallelLayout(world_size=8, pp_size=2, ep_size=2)
            assert stage == layout.stage_of(r)
            assert ep_rank == layout.ep_rank_of(r)
            assert dp_index == layout.dp_index_of(r)

    def test_pipeline_members_cross_planes(self):
        def program(comm):
            return _groups(comm, 2, 2).pipe.members

        res = run_spmd(program, 8, timeout=300)
        assert res.returns[1] == (1, 5)


def _train_3d(comm, pipe, ep, steps=4, cfg=CFG, seed=3, microbatches=2):
    groups = _groups(comm, pipe, ep)
    # The layout-independence tolerances below hold at 1e-3 (the step size a
    # schedule-less Trainer3D imposed before it honoured the optimizer's lr);
    # at 3e-3 a top-k routing flip moves step 3's loss in the 4th digit.
    if pipe == 1:
        # No pipeline axis: the in-plane step trains the same global problem.
        model = build_moda_model(cfg, groups, seed=seed)
        trainer = MoDaTrainer(model, Adam(model.parameters(), lr=1e-3), groups)
    else:
        trainer = Trainer3D(cfg, groups, num_microbatches=microbatches, seed=seed)
        trainer.attach_optimizer(Adam(trainer.stage.parameters(), lr=1e-3))
    corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, predictability=0.9, seed=5)
    loader = ShardedLoader(
        corpus, 4, 8, dp_rank=groups.pipeline_id, dp_size=groups.layout.plane_size
    )
    return [trainer.train_step(loader.get_batch(s)).global_loss for s in range(steps)]


class TestTrainer3D:
    def test_all_ranks_agree_and_converge(self):
        res = run_spmd(_train_3d, 8, args=(2, 2, 6), timeout=600)
        base = res.returns[0]
        for r in res.returns[1:]:
            assert np.allclose(r, base)
        assert base[-1] < base[0]

    def test_rejects_a_layout_without_a_pipeline(self):
        def program(comm):
            Trainer3D(CFG, _groups(comm, 1, 2), num_microbatches=1)

        with pytest.raises(ConfigError, match="Trainer3D needs pp_size >= 2"):
            run_spmd(program, 2, timeout=300)

    def test_requires_attached_optimizer(self):
        def program(comm):
            groups = _groups(comm, 2, 1)
            trainer = Trainer3D(CFG, groups, num_microbatches=1)
            trainer.train_step(Batch(np.zeros((2, 8), dtype=np.int64),
                                     np.zeros((2, 8), dtype=np.int64), 0))

        with pytest.raises(ConfigError):
            run_spmd(program, 2, timeout=300)

    def test_schedule_less_trainer_steps_at_the_optimizers_lr(self):
        """No schedule given: the attached optimizer's own lr is the step
        size (it used to be overwritten with a hard-coded 1e-3)."""
        def program(comm, schedule):
            groups = _groups(comm, 2, 1)
            trainer = Trainer3D(CFG, groups, num_microbatches=2, seed=3, schedule=schedule)
            trainer.attach_optimizer(Adam(trainer.stage.parameters(), lr=3e-3))
            loader = ShardedLoader(SyntheticCorpus(vocab_size=CFG.vocab_size, seed=5), 4, 8)
            results = [trainer.train_step(loader.get_batch(s)) for s in range(2)]
            return trainer.optimizer.lr, [r.lr for r in results], results[-1].global_loss

        from repro.train.schedules import ConstantLR

        default = run_spmd(program, 2, args=(None,), timeout=300).returns
        explicit = run_spmd(program, 2, args=(ConstantLR(3e-3),), timeout=300).returns
        slower = run_spmd(program, 2, args=(ConstantLR(1e-3),), timeout=300).returns
        assert default[0][:2] == (3e-3, [3e-3, 3e-3])
        assert default == explicit
        assert default[0][2] != slower[0][2]

    def test_grid_shape_independence(self):
        """The same global problem gives the same loss trajectory under
        every 3D factorization (placement never changes numerics). The
        pp-1 shapes run the in-plane step (one batch, no microbatches).

        Layouts sum in different orders, so parameters differ in their last
        bits after the first update. With every token sent to every expert
        there is no top-k choice for a last bit to flip and all three steps
        agree to a few ulps; with top-2 of 4 that holds for steps 0 and 1
        (before the differing bits have reached a near-tied router logit),
        and a later step may resolve one near-tie differently."""
        ulps = 5e-6  # ten fp32 ulps of a loss near 4.8
        flip = 5e-3  # one top-2 flip: measured 1.1e-3 (4.78966 vs 4.78856 at step 2)
        shapes = [
            (4, 1, 1),  # pure DP over 4 replicas
            (4, 2, 1),  # 2 stages x 2 pipelines
            (4, 1, 2),  # MoDa: ep=2, dp=2
            (4, 2, 2),  # full 3D on 4 ranks: 2 stages x (dp1 x ep2)
            (8, 2, 2),  # full 3D on 8 ranks
        ]
        for cfg, exact_steps in ((CFG_ALL_EXPERTS, 3), (CFG, 2)):
            trajectories = {}
            for world, pipe, ep in shapes:
                res = run_spmd(_train_3d, world, args=(pipe, ep, 3, cfg), timeout=600)
                trajectories[(world, pipe, ep)] = res.returns[0]

            def assert_same(shape, reference):
                got, want = trajectories[shape], trajectories[reference]
                np.testing.assert_allclose(got[:exact_steps], want[:exact_steps], rtol=0, atol=ulps)
                np.testing.assert_allclose(got[exact_steps:], want[exact_steps:], rtol=0, atol=flip)

            # Same plane width => identical global batch => identical losses.
            # (4,1,1) plane=4; (4,1,2) plane=4; (8,2,2) plane=4 — all match.
            assert_same((4, 1, 2), (4, 1, 1))
            assert_same((8, 2, 2), (4, 1, 1))
            # (4,2,1) and (4,2,2) have plane=2 (different data) but must agree
            # with each other.
            assert_same((4, 2, 2), (4, 2, 1))

    def test_matches_single_process_reference(self):
        """3D first-step loss == single-process loss on the global batch."""
        corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, predictability=0.9, seed=5)
        plane = 2
        batches = [
            ShardedLoader(corpus, 4, 8, dp_rank=i, dp_size=plane).get_batch(0)
            for i in range(plane)
        ]
        # Reference: a MoDa-built model on one rank (expert weights are
        # seeded per global expert id, matching the 3D construction; a
        # plain build_model draws experts from a different stream).
        def build_ref(comm):
            return build_moda_model(CFG, build_groups(comm, ParallelLayout(comm.size)), seed=3)

        ref = run_spmd(build_ref, 1, timeout=300).returns[0]
        ref_loss = float(np.mean([
            ref.loss(b.tokens, b.targets).item() for b in batches
        ]))

        def program(comm):
            groups = _groups(comm, 2, 2)
            trainer = Trainer3D(CFG, groups, num_microbatches=2, seed=3)
            trainer.attach_optimizer(SGD(trainer.stage.parameters(), lr=1e-9))
            loader = ShardedLoader(
                corpus, 4, 8, dp_rank=groups.pipeline_id,
                dp_size=groups.layout.plane_size,
            )
            return trainer.train_step(loader.get_batch(0)).global_loss

        res = run_spmd(program, 4, timeout=600)
        assert res.returns[0] == pytest.approx(ref_loss, abs=1e-5)

    def test_fp16_scaled_3d_step(self):
        from repro.amp import DynamicLossScaler

        def program(comm):
            groups = _groups(comm, 2, 2)
            scaler = DynamicLossScaler(init_scale=2.0**8, growth_interval=10)
            trainer = Trainer3D(CFG, groups, num_microbatches=2, seed=3,
                                scaler=scaler)
            trainer.attach_optimizer(Adam(trainer.stage.parameters(), lr=3e-3))
            corpus = SyntheticCorpus(vocab_size=CFG.vocab_size, seed=5)
            loader = ShardedLoader(corpus, 4, 8, dp_rank=groups.pipeline_id,
                                   dp_size=groups.layout.plane_size)
            out = [trainer.train_step(loader.get_batch(s)) for s in range(3)]
            return [(r.global_loss, r.loss_scale, r.skipped) for r in out]

        res = run_spmd(program, 8, timeout=600)
        for per_rank in res.returns:
            for loss, scale, skipped in per_rank:
                assert np.isfinite(loss)
                assert scale >= 1.0
