"""Training trajectories of the benchmark's model, pinned to the last bit.

The literals below were generated on the commit *before* the autograd hot
path stopped re-rounding moved values, left ``np.add.at`` and stopped
copying fresh arrays (PR 18), so they pass unmodified on either side of
it: any host-time optimisation of ``repro.tensor`` / ``repro.train.optim``
must leave every loss, the virtual clock and every parameter bit alone.
The pipeline cases were generated on the commit before ``Tensor.backward``
started consuming the graph (PR 21): a non-last stage runs two backwards
over one microbatch's graph, and a dropped or re-ordered stage-local
aux-loss gradient moves these losses in the fourth digit.

The floats go through BLAS and libm, whose last bits depend on the CPU's
kernels; ``PLATFORM`` fingerprints the arithmetic the literals were made
with, and on any other arithmetic the literals say nothing (skip). To
re-pin after a deliberate numerics change, print ``_trajectory(_plane_cfg(...))``
/ ``_trajectory(_pipeline_cfg(...), PIPELINE_STEPS)`` for every case on the
parent of that change.

The remaining in-plane strategies and the elastic driver were pinned on the
commit before the distributed step was written once (PR 22), so that every
copy of the step it folded together had a trajectory to be held to.
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

#: The pipeline strategies' model (pp 2, batch 4, seq 16, two microbatches).
PIPELINE_MODEL = dict(n_layers=4, num_experts=4, d_model=32, d_ff=64, top_k=2)
PIPELINE_STEPS = 4

#: strategy -> ((world, ep, mixed), (loss per step, final virtual clock, parameter SHA-256 per rank))
PIPELINE_PINNED = {
    "pipeline": ((2, 1, False), (
        [4.927620895206928, 4.875971717759967, 4.858827856369317, 4.813754862174392],
        4.5018729142857164e-05,
        ["f86e53bf2ebdea7e9c22f874c5c864ff21aa582849e30203be7106777cf33303",
         "b736ab6a7825e8651b94ca2b1c3142b5d9d5d3f9fd9ae7d1a25a9d650e9f7688"],
    )),
    "pp_dp": ((4, 1, True), (
        [4.911132687237114, 4.852426812052727, 4.846034585963935, 4.778957479633391],
        0.00012864272914285717,
        ["3d8da89fbe47be92a76486691fce3e1e0f17b7cb95c261ec9952767a33e1b804"] * 2
        + ["051425082f669d5fdfe5944592d62bca65e3d62eaf65fa2a8a14cfffc7955651"] * 2,
    )),
    "pp_moda": ((4, 2, True), (
        [4.911132687237114, 4.852422542404383, 4.846032379195094, 4.778870134614408],
        0.000298894678857143,
        ["2bf5cd64fdfbfc8119fc04c8420486fce5ac39ec2578c907824f36637b860eef",
         "a33cd6862fb51a0072ef301eb135cecdd8eb0d9a82a0d836477505c3f2015631",
         "fc34d2b72ab5f4f6c4dbc8d372d04099d6021417f697a7af0a8316fab9d8dfe9",
         "44f6bb669fc32903d7953f1e0bf807799b3a8bea60dc4c08989ebd9ce708a883"],
    )),
}


STRATEGY_STEPS = 4

#: strategy -> ((world, ep, mixed, further fields), (loss per step, final clock, parameter SHA-256 per rank)).
#: TP shards dense FFN blocks, so its cases alternate dense and MoE blocks.
STRATEGY_PINNED = {
    "ep": ((4, 4, True, {}), (
        [4.89533007144928, 4.774999141693115,
         4.6849024295806885, 4.582231521606445],
        0.000992853028571429,
        ["ba0c35a1e508763a777afffea8191d5ebb6b4d1f93c08d43e72ee7c8f1f70cf5",
         "4071edf7d731ed988ce41c485cce78be55a8b336702d1980d11e5330a1010f69",
         "7c0ddaedbc5211dff1f57c7e561a5b458b32bb0988663ed6399726382568713c",
         "3b163f48ad0dbc483a02c5fac68862e0f83a807e92fed9969d6122892cd8397d"],
    )),
    "tp": ((4, 1, False, dict(tp_size=2, moe_every=2)), (
        [4.873028516769409, 4.771078109741211,
         4.700643539428711, 4.571130037307739],
        0.0008563313097142861,
        ["9a6d0b3a37dfdc68c700f78d037d2e3ef577af26c506ad36cd095f88ada635a6",
         "a31c3a3acbd03b3e6757b6037d1ef49ce7adb5ece07140ddd80191bee31e7fca"] * 2,
    )),
    "tp_ep": ((4, 2, True, dict(tp_size=2, moe_every=2)), (
        [4.872972011566162, 4.770342588424683,
         4.699771165847778, 4.5720508098602295],
        0.0005983736137142859,
        ["3597e1c08afe7ac2375e8cdac8c3666c404bdd6192b632d77d6922e6239952f1",
         "a831de04335131fb11237aa478c65c7c004ad902e85a09ef63807a35cf52b312",
         "a50e7dfa10808e94511e519c74d7974c22ec8ba241e8818b7533931d669b251e",
         "25ddee407733ca6bbffad9bac798ef4180e39f6221dac8ccb091dfa44ef85ec4"],
    )),
    "zero": ((4, 2, True, dict(zero_shards=2)), (
        [4.89533007144928, 4.774999499320984,
         4.684801816940308, 4.58154559135437],
        0.000921231414857143,
        ["6e875e8366e4dd751ab7c9096bee5307a920a36d10ea08b7598faecfd8972b69",
         "a3134965a2567227facde67ff488bfea4a484a5938ea4e62c51dfaa3aeb2bad7"] * 2,
    )),
}

#: Logical world 4 / ep 2 in fp32, run on physical worlds 4 (k = 1) and 2 (k = 2):
#: physical world -> (loss per step, final clock, parameter SHA-256 per rank)
ELASTIC_LOGICAL = (4, 2)
ELASTIC_PINNED = {
    4: (
        [4.894692063331604, 4.774231433868408,
         4.685718774795532, 4.580522298812866],
        0.0009452332342857144,
        ["958b65cc01500ad3c5ecc671ccd09f83c5eabc0503410f4995eec0e0c0ca0fe4",
         "89a414ea4fa4c8981097d9037bc7aaf9171217fbb973f3b8dddb48280d1df06c"] * 2,
    ),
    2: (
        [4.894692063331604, 4.774231433868408,
         4.685718774795532, 4.580522298812866],
        0.000994055300571428,
        ["958b65cc01500ad3c5ecc671ccd09f83c5eabc0503410f4995eec0e0c0ca0fe4",
         "89a414ea4fa4c8981097d9037bc7aaf9171217fbb973f3b8dddb48280d1df06c"],
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


def _assert_pinned(got, want):
    if _platform() != PLATFORM:
        pytest.skip("BLAS/libm round differently here than where the literals were generated")
    for got_part, want_part in zip(got, want, strict=True):
        assert got_part == want_part


@pytest.mark.parametrize("world,ep,mixed", sorted(PINNED), ids=lambda v: str(v))
def test_trajectory_is_bit_identical_to_the_pinned_one(world, ep, mixed):
    _assert_pinned(_trajectory(_plane_cfg(world, ep, mixed)), PINNED[(world, ep, mixed)])


@pytest.mark.parametrize("strategy", sorted(PIPELINE_PINNED))
def test_pipeline_trajectory_is_bit_identical_to_the_pinned_one(strategy):
    layout, want = PIPELINE_PINNED[strategy]
    cfg = _pipeline_cfg(*layout)
    assert cfg.resolve_strategy().name == strategy
    _assert_pinned(_trajectory(cfg, PIPELINE_STEPS), want)


@pytest.mark.parametrize("strategy", sorted(STRATEGY_PINNED))
def test_strategy_trajectory_is_bit_identical_to_the_pinned_one(strategy):
    (world, ep, mixed, layout), want = STRATEGY_PINNED[strategy]
    cfg = _plane_cfg(world, ep, mixed, **layout)
    assert cfg.resolve_strategy().name == strategy
    _assert_pinned(_trajectory(cfg, STRATEGY_STEPS), want)


@pytest.mark.parametrize("world", sorted(ELASTIC_PINNED))
def test_elastic_trajectory_is_bit_identical_to_the_pinned_one(world):
    cfg = _plane_cfg(world, ELASTIC_LOGICAL[1], False)
    _assert_pinned(_trajectory(cfg, STRATEGY_STEPS, _elastic_program), ELASTIC_PINNED[world])
