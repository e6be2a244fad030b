"""Tensor parallelism: sharding math, exact dense equivalence, and the
collective algorithm of the activation allreduces."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import MLP, Linear, tiny_config
from repro.network import sunway_network
from repro.parallel import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelMLP,
    TrainingRunConfig,
    run_distributed_training,
    shard_linear_weights,
)
from repro.simmpi import run_spmd
from repro.simmpi.comm import collective_seconds
from repro.tensor import Tensor

D, FF = 8, 16
RNG = np.random.default_rng(0)
X = RNG.normal(size=(5, D)).astype(np.float32)


class TestShardWeights:
    def test_column_split(self):
        w = np.arange(12, dtype=np.float64).reshape(3, 4)
        b = np.arange(4, dtype=np.float64)
        w0, b0 = shard_linear_weights(w, b, tp_rank=0, tp_size=2, axis=1)
        w1, b1 = shard_linear_weights(w, b, tp_rank=1, tp_size=2, axis=1)
        assert np.array_equal(np.concatenate([w0, w1], axis=1), w)
        assert np.array_equal(np.concatenate([b0, b1]), b)

    def test_row_split_keeps_bias(self):
        w = np.arange(12, dtype=np.float64).reshape(4, 3)
        b = np.arange(3, dtype=np.float64)
        w0, b0 = shard_linear_weights(w, b, tp_rank=0, tp_size=2, axis=0)
        assert w0.shape == (2, 3)
        assert np.array_equal(b0, b)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            shard_linear_weights(np.zeros((3, 5)), None, 0, 2, axis=1)

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            shard_linear_weights(np.zeros((4, 4)), None, 0, 2, axis=2)


class TestDenseEquivalence:
    @pytest.mark.parametrize("tp_size", [1, 2, 4])
    def test_mlp_forward_matches_dense(self, tp_size):
        dense = MLP(D, FF, np.random.default_rng(7))
        ref = dense(Tensor(X)).data

        def program(comm):
            tp = TensorParallelMLP(D, FF, comm, np.random.default_rng(7))
            return tp(Tensor(X)).data

        res = run_spmd(program, tp_size, timeout=120)
        for out in res.returns:
            assert np.allclose(out, ref, atol=1e-5)

    def test_mlp_backward_matches_dense(self):
        dense = MLP(D, FF, np.random.default_rng(9))
        x_ref = Tensor(X.copy(), requires_grad=True)
        dense(x_ref).sum().backward()

        def program(comm):
            tp = TensorParallelMLP(D, FF, comm, np.random.default_rng(9))
            x = Tensor(X.copy(), requires_grad=True)
            tp(x).sum().backward()
            # Reassemble the full fc_in weight grad from the column shards.
            return x.grad.copy(), tp.fc_in.weight.grad.copy(), tp.comm.rank

        res = run_spmd(program, 2, timeout=120)
        # Input gradients are full-size on every rank and match dense.
        for xg, _, _ in res.returns:
            assert np.allclose(xg, x_ref.grad, atol=1e-5)
        shards = sorted(res.returns, key=lambda t: t[2])
        full_wg = np.concatenate([wg for _, wg, _ in shards], axis=1)
        assert np.allclose(full_wg, dense.fc_in.weight.grad, atol=1e-5)

    def test_column_linear_shard_of_dense(self):
        dense = Linear(D, FF, np.random.default_rng(3))
        ref = dense(Tensor(X)).data

        def program(comm):
            col = ColumnParallelLinear(D, FF, comm, np.random.default_rng(3))
            return col(Tensor(X)).data, comm.rank

        res = run_spmd(program, 2, timeout=120)
        shards = sorted(res.returns, key=lambda t: t[1])
        full = np.concatenate([s for s, _ in shards], axis=1)
        assert np.allclose(full, ref, atol=1e-5)

    def test_row_linear_sums_partials(self):
        dense = Linear(FF, D, np.random.default_rng(4))
        h = RNG.normal(size=(5, FF)).astype(np.float32)
        ref = dense(Tensor(h)).data

        def program(comm):
            row = RowParallelLinear(FF, D, comm, np.random.default_rng(4))
            per = FF // comm.size
            local = h[:, comm.rank * per: (comm.rank + 1) * per]
            return row(Tensor(local)).data

        res = run_spmd(program, 2, timeout=120)
        for out in res.returns:
            assert np.allclose(out, ref, atol=1e-5)


class TestValidation:
    def test_indivisible_out_features(self):
        def program(comm):
            ColumnParallelLinear(4, 6, comm, np.random.default_rng(0))

        with pytest.raises(ConfigError):
            run_spmd(program, 4, timeout=60)

    def test_indivisible_in_features(self):
        def program(comm):
            RowParallelLinear(6, 4, comm, np.random.default_rng(0))

        with pytest.raises(ConfigError):
            run_spmd(program, 4, timeout=60)

    def test_parameter_counts_partition_dense(self):
        dense_params = MLP(D, FF, np.random.default_rng(1)).num_parameters()

        def program(comm):
            tp = TensorParallelMLP(D, FF, comm, np.random.default_rng(1))
            # Row bias is replicated; count it once (on rank 0).
            n = tp.num_parameters()
            if comm.rank != 0:
                n -= tp.fc_out.bias.size
            return n

        res = run_spmd(program, 2, timeout=60)
        assert sum(res.returns) == dense_params


def test_activation_allreduces_run_the_chosen_algorithm():
    """A TP run's forward and backward activation allreduces take the run's
    ``allreduce_algorithm``, the one ``StepModel`` prices them at: each
    traced one lasts ``collective_seconds`` at that algorithm past the later
    peer's arrival. At this size "tree" costs more than "auto"."""
    model = tiny_config(moe_every=2)
    cfg = TrainingRunConfig(
        model=model, world_size=4, ep_size=2, tp_size=2, num_steps=2,
        batch_size=2, seq_len=8, trace=True, allreduce_algorithm="tree",
    )
    trace = run_distributed_training(cfg).trace
    # The only allreduces of one activation's fp32 bytes are the TP ones.
    nbytes = cfg.batch_size * cfg.seq_len * model.d_model * 4
    net = sunway_network(cfg.world_size)
    # TP peers sit at stride ep_size.
    for members in ([0, 2], [1, 3]):
        tree = collective_seconds(net, "allreduce", nbytes, members, "tree")
        assert tree > collective_seconds(net, "allreduce", nbytes, members)
        calls = [
            [e for e in trace if e.rank == r and e.op == "allreduce" and e.nbytes == nbytes]
            for r in members
        ]
        # One dense block: a forward and a backward allreduce per step.
        assert [len(c) for c in calls] == [2 * cfg.num_steps] * 2
        for a, b in zip(*calls):
            assert a.t_end == b.t_end
            assert a.t_end - max(a.t_start, b.t_start) == pytest.approx(tree, rel=1e-9)
