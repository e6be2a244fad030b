"""End-to-end integration: the experiment runner and cross-strategy facts.

These are the measured-side claims the benchmarks print:

* every strategy trains (loss decreases) and agrees on the trajectory;
* MoDa's simulated step time beats flat EP at multi-supernode scale;
* mixed precision works under the distributed trainer;
* timing responds to the algorithm knobs.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import tiny_config
from repro.network import LinkSpec, Level, NetworkModel, Topology, sunway_network
from repro.parallel import TrainingRunConfig, run_distributed_training


def _flat_network(num_nodes: int, bandwidth: float) -> NetworkModel:
    """``flat_network`` with its link's bandwidth replaced."""
    link = LinkSpec(latency=2.0e-6, bandwidth=bandwidth)
    return NetworkModel(topology=Topology([Level("node", num_nodes, link)]))


CFG = tiny_config(num_experts=8)


def run(world=8, ep=4, steps=3, **kw):
    rc = TrainingRunConfig(
        model=CFG, world_size=world, ep_size=ep, num_steps=steps,
        batch_size=2, seq_len=8, **kw,
    )
    return run_distributed_training(rc)


class TestRunner:
    def test_returns_consistent_result(self):
        res = run()
        assert len(res.losses) == 3
        assert res.simulated_time > 0
        assert res.step_time == pytest.approx(res.simulated_time / 3)
        assert res.traffic["total_bytes"] > 0
        assert res.load_imbalance >= 1.0

    def test_loss_decreases_over_steps(self):
        res = run(steps=8)
        assert res.losses[-1] < res.losses[0]

    def test_strategies_agree_on_losses(self):
        dp = run(ep=1)
        hybrid = run(ep=4)
        flat = run(ep=8, alltoall_algorithm="flat")
        assert np.allclose(dp.losses, hybrid.losses, atol=1e-4)
        assert np.allclose(dp.losses, flat.losses, atol=1e-4)

    def test_mixed_precision_trains(self):
        res = run(steps=6, mixed_precision=True)
        assert res.losses[-1] < res.losses[0] + 0.1
        assert all(np.isfinite(v) for v in res.losses)

    def test_fp16_close_to_fp32(self):
        a = run(steps=4)
        b = run(steps=4, mixed_precision=True)
        assert max(abs(x - y) for x, y in zip(a.losses, b.losses)) < 0.2

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TrainingRunConfig(model=CFG, world_size=6, ep_size=4)
        with pytest.raises(ConfigError):
            TrainingRunConfig(model=CFG, world_size=0, ep_size=1)


class TestTimingShapes:
    def test_compute_time_dominates_when_enabled(self):
        with_compute = run(model_compute_time=True)
        without = run(model_compute_time=False)
        assert with_compute.simulated_time > without.simulated_time

    def test_alltoall_algorithm_changes_time_not_loss(self):
        # A multi-supernode machine, so hierarchical aggregation has a
        # hierarchy to exploit.
        net = sunway_network(8, supernode_size=2)
        flat = run_distributed_training(
            TrainingRunConfig(model=CFG, world_size=8, ep_size=8, num_steps=3,
                              batch_size=2, seq_len=8, alltoall_algorithm="flat",
                              model_compute_time=False),
            network=net,
        )
        hier = run_distributed_training(
            TrainingRunConfig(model=CFG, world_size=8, ep_size=8, num_steps=3,
                              batch_size=2, seq_len=8,
                              alltoall_algorithm="hierarchical",
                              model_compute_time=False),
            network=net,
        )
        assert np.allclose(flat.losses, hier.losses, atol=1e-5)
        assert flat.simulated_time != hier.simulated_time

    def test_moda_beats_flat_ep_on_multi_supernode_machine(self):
        """T3 headline, measured: with EP confined to a supernode and
        hierarchical collectives, step time beats machine-wide flat EP."""
        net = sunway_network(16, supernode_size=4)
        wide = CFG.scaled(num_experts=16)  # divisible by ep_size=16

        # MoDa: EP confined to one supernode, hierarchical collectives.
        moda = run_distributed_training(
            TrainingRunConfig(
                model=wide, world_size=16, ep_size=4, num_steps=3,
                batch_size=2, seq_len=8,
                alltoall_algorithm="hierarchical",
                allreduce_algorithm="hierarchical",
                model_compute_time=False,
            ),
            network=net,
        )
        flat_res = run_distributed_training(
            TrainingRunConfig(
                model=wide, world_size=16, ep_size=16, num_steps=3,
                batch_size=2, seq_len=8, alltoall_algorithm="flat",
                allreduce_algorithm="ring", model_compute_time=False,
            ),
            network=net,
        )
        assert moda.simulated_time < flat_res.simulated_time

    def test_network_model_matters(self):
        slow = run_distributed_training(
            TrainingRunConfig(model=CFG, world_size=4, ep_size=4, num_steps=2,
                              batch_size=2, seq_len=8, model_compute_time=False),
            network=_flat_network(4, bandwidth=1e8),
        )
        fast = run_distributed_training(
            TrainingRunConfig(model=CFG, world_size=4, ep_size=4, num_steps=2,
                              batch_size=2, seq_len=8, model_compute_time=False),
            network=_flat_network(4, bandwidth=1e11),
        )
        assert slow.simulated_time > fast.simulated_time


class TestGateStrategiesEndToEnd:
    def test_balanced_gate_reduces_measured_imbalance(self):
        """F5, measured end-to-end through the distributed trainer."""
        topk = run_distributed_training(
            TrainingRunConfig(model=CFG.scaled(gate="topk"), world_size=4,
                              ep_size=4, num_steps=3, batch_size=4, seq_len=16)
        )
        balanced = run_distributed_training(
            TrainingRunConfig(model=CFG.scaled(gate="balanced"), world_size=4,
                              ep_size=4, num_steps=3, batch_size=4, seq_len=16)
        )
        assert balanced.load_imbalance <= topk.load_imbalance

    def test_capacity_factor_drops_tokens_but_trains(self):
        res = run_distributed_training(
            TrainingRunConfig(
                model=CFG.scaled(capacity_factor=1.0), world_size=4, ep_size=4,
                num_steps=4, batch_size=4, seq_len=8,
            )
        )
        assert all(np.isfinite(v) for v in res.losses)
