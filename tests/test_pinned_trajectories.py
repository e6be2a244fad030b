"""Training trajectories of the benchmark's model, pinned to the last bit.

Any host-time or host-memory optimisation of ``repro.tensor``,
``repro.train.optim`` or a trainer must leave every loss, the virtual clock
and every parameter bit alone; these literals are what it is held to.

Provenance. All twelve sets were regenerated on PR 23, the one deliberate
numerics change: ``gelu`` cubes by ``v * v * v`` instead of ``v ** 3``, whose
float32 ``power`` rounds ``(-x) ** 3`` differently from ``-(x ** 3)``. A last-bit
difference in an activation reaches every parameter hash, most losses, and
— through a top-2 routing near-tie — three of the clocks; CHANGES.md (PR 23)
lists old against new per case. Before that the plane cases dated from the
parent of PR 18 (moved values no longer re-rounded, ``np.add.at`` left, fresh
arrays not copied), the pipeline cases from the parent of PR 21
(``Tensor.backward`` consumes the graph: a non-last stage runs two backwards
over one microbatch's graph, and a dropped or re-ordered stage-local aux-loss
gradient moves these losses in the fourth digit) and the remaining in-plane
strategies and the elastic driver from the parent of PR 22 (the distributed
step written once); all three passed them unmodified. The final clocks of the
six cases that chunk the expert exchange (the world-4 plane, ``ep``,
``tp_ep``, ``zero`` and both elastic worlds) moved, and nothing else did, when
the backward of a chunked exchange became one blocking alltoall per
direction instead of one per chunk; CHANGES.md lists old against new. The
final clocks of the six mixed-precision multi-rank cases (the world-4 plane,
``pp_dp``, ``pp_moda``, ``ep``, ``tp_ep`` and ``zero``) moved again, and nothing
else did, when fp16 payloads began to cross the simulated wire as 2-byte
float16 (DESIGN.md §8, "The wire carries the modelled dtype"); CHANGES.md
lists old against new. The final clocks of ten cases (the world-4 plane, the
three pipelines, ``ep``, ``tp``, ``tp_ep``, ``zero`` and both elastic worlds)
moved once more, and nothing else did, when a step's bookkeeping became two
collectives (DESIGN.md §8, "Step bookkeeping is two collectives"); CHANGES.md
lists old against new. All twelve sets passed unmodified when a rank's local
experts became one autograd node (DESIGN.md §8, "One node per expert stage").

The floats go through BLAS and libm, whose last bits depend on the CPU's
kernels; ``PLATFORM`` fingerprints the arithmetic the literals were made
with, and on any other arithmetic the literals say nothing (skip). To
re-pin after a deliberate numerics change, run
``PYTHONPATH=src python tests/test_pinned_trajectories.py`` on that change: it
prints ``PLATFORM`` and the four tables as source text to paste over the ones
below. An optimisation that must not move a float is checked by generating
nothing: the literals of its parent have to keep passing.
"""

import hashlib

import numpy as np
import pytest

from repro.hardware import sunway_machine
from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig
from repro.resilience import ElasticStepDriver
from repro.simmpi import run_spmd

#: ``bench/train.py``'s model and batch.
MODEL = dict(n_layers=4, num_experts=8, d_model=64, d_ff=128, top_k=2)
STEPS = 8

PLATFORM = "1ddfd6b1f5d482e1710ce8985166b1ec96b47ea8ec03f17717f46259be33c5ca"

#: (world, ep, mixed) -> (loss per step, final virtual clock, SHA-256 of all parameters per rank)
PINNED = {
    (1, 1, True): (
        [4.883156776428223, 4.817469596862793, 4.752377986907959, 4.6930975914001465,
         4.631926536560059, 4.586613178253174, 4.514433860778809, 4.432831287384033],
        0.0002082921325714286,
        ["1c3f764d50a0f6af6d92c428b8bee8f601b25fee7af13dfbe7a43f9d37bf9f27"],
    ),
    (1, 1, False): (
        [4.882719993591309, 4.816562175750732, 4.7506537437438965, 4.689189910888672,
         4.6309380531311035, 4.59261417388916, 4.513717174530029, 4.430296421051025],
        0.00020829213257142856,
        ["49bc38e132727477ce2e3c3c967a8c51c3b7b8dbc74539e5e7d879b4ee20c418"],
    ),
    (4, 2, True): (
        [4.89533007144928, 4.774999499320984, 4.6847615242004395, 4.581519246101379,
         4.517257809638977, 4.453185796737671, 4.388053894042969, 4.298615574836731],
        0.0010174266697142859,
        ["9ea78a63cb77a106ce6fa81acfdd28d996b6c1b525d1795ebd09585223fb1219",
         "4b334c0d4c4ea2e75c64bdfc577e71b7974b6c8b4a6c04020fe1cbc32fca66a1",
         "9ea78a63cb77a106ce6fa81acfdd28d996b6c1b525d1795ebd09585223fb1219",
         "4b334c0d4c4ea2e75c64bdfc577e71b7974b6c8b4a6c04020fe1cbc32fca66a1"],
    ),
}

#: The pipeline strategies' model (pp 2, batch 4, seq 16, two microbatches).
PIPELINE_MODEL = dict(n_layers=4, num_experts=4, d_model=32, d_ff=64, top_k=2)
PIPELINE_STEPS = 4

#: strategy -> ((world, ep, mixed), (loss per step, final virtual clock, parameter SHA-256 per rank))
PIPELINE_PINNED = {
    "pipeline": ((2, 1, False), (
        [4.927620895206928, 4.875971717759967, 4.858827856369317, 4.813754861243069],
        4.502272914285716e-05,
        ["cdcfa6fd8746f13f82661dd9cd7f4deca2ef3adff25bb1a3dc483a4232803a39",
         "ce156fd100d79d6437726928dc7040cc87ff458928b953e868660e7e764e68c1"],
    )),
    "pp_dp": ((4, 1, True), (
        [4.911132687237114, 4.852426812052727, 4.846034585963935, 4.778957479633391],
        9.684872914285717e-05,
        ["3d8da89fbe47be92a76486691fce3e1e0f17b7cb95c261ec9952767a33e1b804",
         "3d8da89fbe47be92a76486691fce3e1e0f17b7cb95c261ec9952767a33e1b804",
         "051425082f669d5fdfe5944592d62bca65e3d62eaf65fa2a8a14cfffc7955651",
         "051425082f669d5fdfe5944592d62bca65e3d62eaf65fa2a8a14cfffc7955651"],
    )),
    "pp_moda": ((4, 2, True), (
        [4.911132687237114, 4.852422542404383, 4.846032379195094, 4.778870134614408],
        0.0002396549051428572,
        ["2bf5cd64fdfbfc8119fc04c8420486fce5ac39ec2578c907824f36637b860eef",
         "1d4b37ee78fe59f6a0eb728747f2f95f353b73630f013161ce2c145453020ddc",
         "fc34d2b72ab5f4f6c4dbc8d372d04099d6021417f697a7af0a8316fab9d8dfe9",
         "44f6bb669fc32903d7953f1e0bf807799b3a8bea60dc4c08989ebd9ce708a883"],
    )),
}


STRATEGY_STEPS = 4

#: strategy -> ((world, ep, mixed, further fields), (loss per step, final clock, parameter SHA-256 per rank)).
#: TP shards dense FFN blocks, so its cases alternate dense and MoE blocks.
STRATEGY_PINNED = {
    "ep": ((4, 4, True, {}), (
        [4.89533007144928, 4.774999618530273, 4.6848918199539185, 4.582298278808594],
        0.0007008290285714293,
        ["3badd339cb4c768f8f2c26e6e5a13bc18e6a707e02a3176cae4e07847cb5d183",
         "fa336f2e1242e9aa103b24936243b4292131e9d7e9ce199ea3481548c90f1129",
         "9f941fbe8061dad4d92d4ec66b22950bb24a871d16c68bdda01d0b1b263e8059",
         "02cb1dd258587070720a28525aac4492a1396c66e31e73a72f34e5524fa67c05"],
    )),
    "tp": ((4, 1, False, {'tp_size': 2, 'moe_every': 2}), (
        [4.873028516769409, 4.771078109741211, 4.700643301010132, 4.571130037307739],
        0.000840331309714286,
        ["71ae9884f56231c898b4a7688f467dfa60d96681afc65078a3e1d2d7e689eb32",
         "15722ba4d6daaf0c8aeb9a2bd69ab7b04b5b46ff669e45871dea7a2db9e083f8",
         "71ae9884f56231c898b4a7688f467dfa60d96681afc65078a3e1d2d7e689eb32",
         "15722ba4d6daaf0c8aeb9a2bd69ab7b04b5b46ff669e45871dea7a2db9e083f8"],
    )),
    "tp_ep": ((4, 2, True, {'tp_size': 2, 'moe_every': 2}), (
        [4.872972011566162, 4.770583629608154, 4.700134754180908, 4.571810960769653],
        0.0004048513097142858,
        ["b06edea446f3703f40a55b58cd7d57adc799078354c86e018f1d0aa66d271ec7",
         "db713d221d2a661a489ceb8bac296585421082a5f0f5d5db74000e65fb6366ed",
         "1b07849dd746fc4f2ffffa86e8fab9b1b9774116c559c3652280086d77a3570b",
         "64025a7e92a52fa5428879739d047cf9031e74fb06c2f3bd8b99052b46e2ecd2"],
    )),
    "zero": ((4, 2, True, {'zero_shards': 2}), (
        [4.89533007144928, 4.774999499320984, 4.6847615242004395, 4.581519246101379],
        0.0005995910948571429,
        ["6c6b8a691b2aa89036e675fa6b2d4eef171e47ff238192c7788d15ecd23d6d52",
         "c36c1e4202e00feeb629db957bc208d5963bcb7ceb858086d6431926b2e667ae",
         "6c6b8a691b2aa89036e675fa6b2d4eef171e47ff238192c7788d15ecd23d6d52",
         "c36c1e4202e00feeb629db957bc208d5963bcb7ceb858086d6431926b2e667ae"],
    )),
}

#: Logical world 4 / ep 2 in fp32, run on physical worlds 4 (k = 1) and 2 (k = 2):
#: physical world -> (loss per step, final clock, parameter SHA-256 per rank)
ELASTIC_LOGICAL = (4, 2)
ELASTIC_PINNED = {
    4: (
        [4.894692063331604, 4.774231553077698, 4.685718655586243, 4.580522298812866],
        0.0008842980662857143,
        ["313f24445afeefa1b1fd0774f2ff0f4aadcc951a40c16376927932b168bbf500",
         "48f99c1c6cb7e313bb70688432868277a18602fe2d7135dd54e961c90c795a93",
         "313f24445afeefa1b1fd0774f2ff0f4aadcc951a40c16376927932b168bbf500",
         "48f99c1c6cb7e313bb70688432868277a18602fe2d7135dd54e961c90c795a93"],
    ),
    2: (
        [4.894692063331604, 4.774231553077698, 4.685718655586243, 4.580522298812866],
        0.000865511300571428,
        ["313f24445afeefa1b1fd0774f2ff0f4aadcc951a40c16376927932b168bbf500",
         "48f99c1c6cb7e313bb70688432868277a18602fe2d7135dd54e961c90c795a93"],
    ),
}


def _platform() -> str:
    """SHA-256 over the float32 kernels a training step leans on."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 64)).astype(np.float32)
    b = rng.standard_normal((64, 128)).astype(np.float32)
    c = a @ b
    digest = hashlib.sha256()
    for out in (c, c.T @ a, np.exp(a), np.tanh(a), np.log(np.abs(a)),
                a.var(axis=-1), c.sum()):
        digest.update(np.asarray(out).tobytes())
    return digest.hexdigest()


def _program(comm, cfg, machine, steps):
    trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    losses = [trainer.train_step(step).global_loss for step in range(steps)]
    # A plane trainer holds the whole model, a pipeline trainer its stage.
    module = trainer.model if hasattr(trainer, "model") else trainer.trainer.stage
    digest = hashlib.sha256()
    for p in module.parameters():
        digest.update(p.data.tobytes())
    return losses, comm.clock, digest.hexdigest()


def _elastic_program(comm, cfg, machine, steps):
    plane = cfg.resolve_strategy().build(comm, cfg, machine)
    driver = ElasticStepDriver(plane, *ELASTIC_LOGICAL, cfg)
    losses = [driver.train_step(step).global_loss for step in range(steps)]
    digest = hashlib.sha256()
    for p in plane.model.parameters():
        digest.update(p.data.tobytes())
    return losses, comm.clock, digest.hexdigest()


def _plane_cfg(world: int, ep: int, mixed: bool, moe_every: int = 1, **layout) -> TrainingRunConfig:
    return TrainingRunConfig(
        model=tiny_config(**MODEL, moe_every=moe_every), world_size=world, ep_size=ep,
        batch_size=4, seq_len=32, mixed_precision=mixed, overlap_chunks=2, seed=0, **layout,
    )


def _pipeline_cfg(world: int, ep: int, mixed: bool) -> TrainingRunConfig:
    return TrainingRunConfig(
        model=tiny_config(**PIPELINE_MODEL), world_size=world, ep_size=ep, pp_size=2,
        batch_size=4, seq_len=16, num_microbatches=2, mixed_precision=mixed, seed=0,
    )


def _trajectory(cfg: TrainingRunConfig, steps: int = STEPS, program=_program):
    cfg.resolve_strategy().validate(cfg)
    world = cfg.world_size
    ranks = run_spmd(program, world, network=sunway_network(world), seed=0,
                     args=(cfg, sunway_machine(num_nodes=world), steps)).returns
    assert all(r[0] == ranks[0][0] for r in ranks), "ranks disagree on the loss"
    return ranks[0][0], max(r[1] for r in ranks), [r[2] for r in ranks]


def _plane_case(world, ep, mixed):
    return _trajectory(_plane_cfg(world, ep, mixed))


def _pipeline_case(strategy):
    cfg = _pipeline_cfg(*PIPELINE_PINNED[strategy][0])
    assert cfg.resolve_strategy().name == strategy
    return _trajectory(cfg, PIPELINE_STEPS)


def _strategy_case(strategy):
    world, ep, mixed, layout = STRATEGY_PINNED[strategy][0]
    cfg = _plane_cfg(world, ep, mixed, **layout)
    assert cfg.resolve_strategy().name == strategy
    return _trajectory(cfg, STRATEGY_STEPS)


def _elastic_case(world):
    cfg = _plane_cfg(world, ELASTIC_LOGICAL[1], False)
    return _trajectory(cfg, STRATEGY_STEPS, _elastic_program)


def _assert_pinned(got, want):
    if _platform() != PLATFORM:
        pytest.skip("BLAS/libm round differently here than where the literals were generated")
    for got_part, want_part in zip(got, want, strict=True):
        assert got_part == want_part


@pytest.mark.parametrize("world,ep,mixed", sorted(PINNED), ids=lambda v: str(v))
def test_trajectory_is_bit_identical_to_the_pinned_one(world, ep, mixed):
    _assert_pinned(_plane_case(world, ep, mixed), PINNED[(world, ep, mixed)])


@pytest.mark.parametrize("strategy", sorted(PIPELINE_PINNED))
def test_pipeline_trajectory_is_bit_identical_to_the_pinned_one(strategy):
    _assert_pinned(_pipeline_case(strategy), PIPELINE_PINNED[strategy][1])


@pytest.mark.parametrize("strategy", sorted(STRATEGY_PINNED))
def test_strategy_trajectory_is_bit_identical_to_the_pinned_one(strategy):
    _assert_pinned(_strategy_case(strategy), STRATEGY_PINNED[strategy][1])


@pytest.mark.parametrize("world", sorted(ELASTIC_PINNED))
def test_elastic_trajectory_is_bit_identical_to_the_pinned_one(world):
    _assert_pinned(_elastic_case(world), ELASTIC_PINNED[world])


def _literal(trajectory) -> str:
    """One case's ``(losses, clock, hashes)`` as the source text the tables above hold."""
    losses, clock, hashes = trajectory
    sep = ",\n" + " " * 9
    rows = sep.join(", ".join(map(repr, losses[i:i + 4])) for i in range(0, len(losses), 4))
    digests = sep.join(f'"{h}"' for h in hashes)
    return f"(\n        [{rows}],\n        {clock!r},\n        [{digests}],\n    )"


if __name__ == "__main__":
    # Re-pinning after a deliberate numerics change: run this on the change
    # and paste its output over PLATFORM and the four tables.
    print(f'PLATFORM = "{_platform()}"\n')
    print("PINNED = {")
    for key in PINNED:
        print(f"    {key!r}: {_literal(_plane_case(*key))},")
    print("}\n\nPIPELINE_PINNED = {")
    for name, (layout, _) in PIPELINE_PINNED.items():
        print(f'    "{name}": ({layout!r}, {_literal(_pipeline_case(name))}),')
    print("}\n\nSTRATEGY_PINNED = {")
    for name, (layout, _) in STRATEGY_PINNED.items():
        print(f'    "{name}": ({layout!r}, {_literal(_strategy_case(name))}),')
    print("}\n\nELASTIC_PINNED = {")
    for world in ELASTIC_PINNED:
        print(f"    {world!r}: {_literal(_elastic_case(world))},")
    print("}")
