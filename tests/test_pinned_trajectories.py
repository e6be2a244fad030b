"""Training trajectories of the benchmark's model, pinned to the last bit.

The literals below were generated on the commit *before* the autograd hot
path stopped re-rounding moved values, left ``np.add.at`` and stopped
copying fresh arrays (PR 18), so they pass unmodified on either side of
it: any host-time optimisation of ``repro.tensor`` / ``repro.train.optim``
must leave every loss, the virtual clock and every parameter bit alone.

The floats go through BLAS and libm, whose last bits depend on the CPU's
kernels; ``PLATFORM`` fingerprints the arithmetic the literals were made
with, and on any other arithmetic the literals say nothing (skip). To
re-pin after a deliberate numerics change, print ``_trajectory(...)`` for
the three cases on the parent of that change.
"""

import hashlib

import numpy as np
import pytest

from repro.hardware import sunway_machine
from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig
from repro.simmpi import run_spmd

#: ``bench/train.py``'s model and batch.
MODEL = dict(n_layers=4, num_experts=8, d_model=64, d_ff=128, top_k=2)
STEPS = 8

PLATFORM = "5c12baeac3cf1f5bd45adb5667521a2c5b98762197761ba8e8bdb16f1092e702"

#: (world, ep, mixed) -> (loss per step, final virtual clock, SHA-256 of all parameters per rank)
PINNED = {
    (1, 1, True): (
        [4.883156776428223, 4.817470073699951, 4.752373695373535, 4.692967414855957,
         4.633847236633301, 4.588781356811523, 4.512768745422363, 4.434446811676025],
        0.0002082921325714286,
        ["06a05b31b304db8a155fb59cf6d113797e154f105a3d41b04e15648d60ad66c4"],
    ),
    (1, 1, False): (
        [4.882719993591309, 4.816562175750732, 4.7506537437438965, 4.689189910888672,
         4.6309380531311035, 4.59261417388916, 4.513717174530029, 4.430296421051025],
        0.00020829213257142856,
        ["c517d9227d15dc157682ce0672278b689474a40b21493ce7a20c94828baaef7e"],
    ),
    (4, 2, True): (
        [4.89533007144928, 4.774999499320984, 4.684801816940308, 4.58154559135437,
         4.517315030097961, 4.4530733823776245, 4.388614773750305, 4.299247860908508],
        0.0016127899977142835,
        ["0cc6605fbd8749b0e22238b58dc333e3f8b8caed7c142c3c50be58e04cba2969",
         "e0ce19735fed4f6c44812b9b8417e05e4143a05156e79b99f01a12d5fc862f52"] * 2,
    ),
}


def _platform() -> str:
    """SHA-256 over the float32 kernels a training step leans on."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 64)).astype(np.float32)
    b = rng.standard_normal((64, 128)).astype(np.float32)
    c = a @ b
    digest = hashlib.sha256()
    for out in (c, c.T @ a, np.exp(a), np.tanh(a), a ** 3, np.log(np.abs(a)),
                a.var(axis=-1), c.sum()):
        digest.update(np.asarray(out).tobytes())
    return digest.hexdigest()


def _program(comm, cfg, machine):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    losses = [trainer.train_step(step).global_loss for step in range(STEPS)]
    digest = hashlib.sha256()
    for p in trainer.model.parameters():
        digest.update(p.data.tobytes())
    return losses, comm.clock, digest.hexdigest()


def _trajectory(world: int, ep: int, mixed: bool):
    cfg = TrainingRunConfig(
        model=tiny_config(**MODEL), world_size=world, ep_size=ep, batch_size=4, seq_len=32,
        mixed_precision=mixed, overlap_chunks=2, seed=0,
    )
    cfg.resolve_strategy().validate(cfg)
    ranks = run_spmd(_program, world, network=sunway_network(world), seed=0,
                     args=(cfg, sunway_machine(num_nodes=world))).returns
    assert all(r[0] == ranks[0][0] for r in ranks), "ranks disagree on the loss"
    return ranks[0][0], max(r[1] for r in ranks), [r[2] for r in ranks]


@pytest.mark.parametrize("world,ep,mixed", sorted(PINNED), ids=lambda v: str(v))
def test_trajectory_is_bit_identical_to_the_pinned_one(world, ep, mixed):
    if _platform() != PLATFORM:
        pytest.skip("BLAS/libm round differently here than where the literals were generated")
    losses, clock, hashes = _trajectory(world, ep, mixed)
    want_losses, want_clock, want_hashes = PINNED[(world, ep, mixed)]
    assert losses == want_losses
    assert clock == want_clock
    assert hashes == want_hashes
