"""A training step's bookkeeping is two collectives at any depth.

Bookkeeping is what a step communicates besides gradients and activations:
the expert loads (one EP-group allreduce of every MoE layer's local load at
the step end, ``parallel/ep.py::fill_group_loads``) and one world allreduce
of ``[overflow flag, loss slots]`` (``DistributedStep._agree``). The counts
below come from the virtual-time trace; an allreduce is bookkeeping unless
it is a gradient bucket, a tensor-parallel region or the GPipe wave's loss.
"""

import numpy as np
import pytest

from repro.models import tiny_config
from repro.parallel import TrainingRunConfig
from repro.parallel.tp import TensorParallelMLP
from repro.resilience import ElasticStepDriver
from repro.simmpi import run_spmd

#: strategy -> (launch fields, model fields). TP shards dense blocks, so its
#: cases alternate dense and MoE blocks.
LAYOUTS = {
    "dp": (dict(ep_size=1), {}),
    "ep": (dict(ep_size=4), {}),
    "moda": (dict(ep_size=2), {}),
    "tp": (dict(ep_size=1, tp_size=2), dict(moe_every=2)),
    "tp_ep": (dict(ep_size=2, tp_size=2), dict(moe_every=2)),
    "zero": (dict(ep_size=2, zero_shards=2), {}),
    "pipeline": (dict(world_size=2, ep_size=1, pp_size=2), {}),
    "pp_dp": (dict(ep_size=1, pp_size=2), {}),
    "pp_moda": (dict(ep_size=2, pp_size=2), {}),
}


def _cfg(strategy, n_layers=2, microbatches=2, **extra):
    launch, model = LAYOUTS[strategy]
    fields = dict(world_size=4, batch_size=4, seq_len=8, seed=0) | launch | extra
    if fields.get("pp_size", 1) > 1:
        fields["num_microbatches"] = microbatches
    cfg = TrainingRunConfig(model=tiny_config(n_layers=n_layers, **model), **fields)
    assert cfg.resolve_strategy().name == strategy
    return cfg


def _allreduces(comm):
    return sum(1 for e in comm.context.trace_events
               if e.rank == comm.rank and e.op == "allreduce")


def _bookkeeping_program(comm, cfg, elastic):
    """Bookkeeping allreduces this rank issues in its second step."""
    plane = cfg.resolve_strategy().build(comm, cfg, None)
    trainer = plane.trainer
    if elastic:
        plane = ElasticStepDriver(plane, comm.size, cfg.ep_size, cfg)
    plane.train_step(0)
    before = _allreduces(comm)
    plane.train_step(1)
    issued = _allreduces(comm) - before
    # One blocking bucket per sync group wider than one rank, one allreduce
    # per direction per TP MLP, and the GPipe wave's mean loss over the pipe.
    buckets = sum(group.size > 1 for _, _, group in trainer.sync_groups)
    model = trainer.stage if cfg.pp_size > 1 else plane.model
    tp_regions = 2 * sum(isinstance(m, TensorParallelMLP) for m in model.modules())
    return issued - buckets - tp_regions - (cfg.pp_size > 1)


def _bookkeeping(cfg, elastic=False):
    res = run_spmd(_bookkeeping_program, cfg.world_size, trace=True, args=(cfg, elastic))
    return res.returns


@pytest.mark.parametrize("strategy", sorted(LAYOUTS))
def test_two_bookkeeping_allreduces_at_any_depth(strategy):
    for n_layers in (2, 4):
        assert _bookkeeping(_cfg(strategy, n_layers)) == [2] * _cfg(strategy).world_size


@pytest.mark.parametrize("strategy", ["pipeline", "pp_dp", "pp_moda"])
def test_two_bookkeeping_allreduces_at_any_microbatch_count(strategy):
    cfg = _cfg(strategy, microbatches=4)
    assert _bookkeeping(cfg) == [2] * cfg.world_size


def test_elastic_driver_two_bookkeeping_allreduces_at_any_depth():
    """At k = 1 the driver's one loss fold and the step-end loads."""
    for n_layers in (2, 4):
        assert _bookkeeping(_cfg("moda", n_layers), elastic=True) == [2] * 4


@pytest.mark.parametrize("strategy", ["moda", "pp_moda"])
def test_overflow_on_one_rank_skips_the_step_everywhere(strategy):
    """An inf in one rank's synced gradient travels in the shared
    allreduce's flag slot: every rank skips, and every rank still gets the
    global loss."""

    def program(comm, cfg):
        plane = cfg.resolve_strategy().build(comm, cfg, None)
        step = plane.trainer
        sync = step.sync_gradients

        def poisoned():
            nbytes = sync()
            if comm.rank == comm.size - 1:
                next(p for p in step.optimizer.params if p.grad is not None).grad[...] = np.inf
            return nbytes

        step.sync_gradients = poisoned
        before = [p.data.copy() for p in step.optimizer.params]
        out = plane.train_step(0)
        unchanged = all(np.array_equal(b, p.data) for b, p in zip(before, step.optimizer.params))
        return out.skipped, unchanged, out.global_loss

    cfg = _cfg(strategy, mixed_precision=True)
    returns = run_spmd(program, cfg.world_size, args=(cfg,)).returns
    assert all(skipped and unchanged for skipped, unchanged, _ in returns)
    assert len({loss for _, _, loss in returns}) == 1
