"""Expert parallelism: differentiable alltoall and distributed-MoE
equivalence with the single-process reference layer."""

import numpy as np
import pytest

from repro.errors import CommunicatorError, ConfigError
from repro.models import MoELayer
from repro.parallel import DistributedMoELayer, allreduce_sum
from repro.parallel.collective_ops import PendingAlltoallRows
from repro.simmpi import run_spmd
from repro.tensor import Tensor


def alltoall_rows(x, send_counts, comm):
    """The blocking row exchange: the handle issued and waited on at once."""
    return PendingAlltoallRows(x, send_counts, comm, None, nonblocking=False).wait()


class TestAlltoallRows:
    def test_forward_routing(self):
        def program(comm):
            # Rank r sends one row [r*10 + d] to each destination d.
            x = Tensor(np.array([[comm.rank * 10 + d] for d in range(comm.size)], dtype=np.float64), dtype="fp64")
            out, counts = alltoall_rows(x, [1] * comm.size, comm)
            return out.data.ravel().tolist(), counts

        res = run_spmd(program, 3)
        for r, (rows, counts) in enumerate(res.returns):
            assert rows == [s * 10 + r for s in range(3)]
            assert counts == [1, 1, 1]

    def test_variable_counts(self):
        def program(comm):
            # Rank 0 sends 2 rows to rank 1, nothing elsewhere.
            if comm.rank == 0:
                x = Tensor(np.ones((2, 3)), dtype="fp64")
                counts = [0, 2]
            else:
                x = Tensor(np.zeros((0, 3)), dtype="fp64")
                counts = [0, 0]
            out, recv = alltoall_rows(x, counts, comm)
            return out.shape, recv

        res = run_spmd(program, 2)
        assert res.returns[0] == ((0, 3), [0, 0])
        assert res.returns[1] == ((2, 3), [2, 0])

    def test_backward_routes_gradients_home(self):
        def program(comm):
            x = Tensor(
                np.full((comm.size, 2), float(comm.rank)),
                requires_grad=True,
                dtype="fp64",
            )
            out, _ = alltoall_rows(x, [1] * comm.size, comm)
            # Loss weights received rows by (source+1).
            w = np.arange(1, comm.size + 1, dtype=np.float64)[:, None]
            (out * Tensor(w, dtype="fp64")).sum().backward()
            return x.grad.copy()

        res = run_spmd(program, 3)
        # Row d of rank r went to rank d and was weighted by (r+1) there...
        # wait: receiver weights by source index s+1, so the gradient coming
        # back to rank r's row d is (r+1).
        for r, grad in enumerate(res.returns):
            assert np.allclose(grad, r + 1)

    def test_count_mismatch_rejected(self):
        def program(comm):
            x = Tensor(np.zeros((2, 2)))
            alltoall_rows(x, [1] * comm.size, comm)  # sums to size != 2 rows

        with pytest.raises(CommunicatorError):
            run_spmd(program, 3)

    def test_roundtrip_restores_rows(self):
        def program(comm):
            x = Tensor(np.arange(comm.size * 2, dtype=np.float64).reshape(comm.size, 2) + 100 * comm.rank, dtype="fp64")
            there, counts = alltoall_rows(x, [1] * comm.size, comm)
            back, _ = alltoall_rows(there, counts, comm)
            return np.allclose(back.data, x.data)

        assert all(run_spmd(program, 4).returns)


class TestAllreduceSumOp:
    def test_forward(self):
        def program(comm):
            x = Tensor(np.full(3, comm.rank + 1.0), dtype="fp64")
            return allreduce_sum(x, comm).data.copy()

        res = run_spmd(program, 3)
        assert np.allclose(res.returns[0], 6.0)

    def test_backward_is_identity_per_rank(self):
        """SPMD convention: the loss is one logical value, so the adjoint
        of the cross-rank sum is a passthrough of the local gradient."""

        def program(comm):
            x = Tensor(np.ones(2), requires_grad=True, dtype="fp64")
            out = allreduce_sum(x, comm)
            (out * 2.0).sum().backward()
            return x.grad.copy()

        res = run_spmd(program, 3)
        for grad in res.returns:
            assert np.allclose(grad, 2.0)


def _reference_and_weights(num_experts=4, d_model=8, d_ff=16, seed=3):
    """Build a local reference MoE layer and return (layer, state)."""
    ref = MoELayer(
        d_model, d_ff, num_experts, np.random.default_rng(seed), gate="topk", top_k=1,
        aux_weight=1e-2,
    )
    return ref, ref.state_dict()


class TestDistributedEquivalence:
    """The core correctness claim: sharding experts changes WHERE compute
    runs, not WHAT is computed."""

    @pytest.mark.parametrize("ep_size", [1, 2, 4])
    def test_forward_matches_local_reference(self, ep_size):
        num_experts, d_model, d_ff = 4, 8, 16
        ref, state = _reference_and_weights(num_experts, d_model, d_ff)
        rng = np.random.default_rng(0)
        # One global batch, split evenly across EP ranks.
        n_per_rank = 6
        full_x = rng.normal(size=(n_per_rank * ep_size, d_model)).astype(np.float32)
        ref_out = ref(Tensor(full_x)).data

        def program(comm):
            layer = DistributedMoELayer(
                d_model, d_ff, num_experts, comm,
                shared_rng=np.random.default_rng(1), seed=0,
                gate="topk", top_k=1, aux_weight=1e-2,
            )
            # Load the reference weights into the local shard.
            layer.router.weight.data = state["router.weight"].copy()
            for li, gid in enumerate(layer.global_expert_ids):
                for pname in ("fc_in.weight", "fc_in.bias", "fc_out.weight", "fc_out.bias"):
                    src = state[f"experts.{gid}.{pname}"]
                    dst = dict(layer.experts[li].named_parameters())[pname]
                    dst.data = src.copy()
            lo = comm.rank * n_per_rank
            x = Tensor(full_x[lo: lo + n_per_rank].copy())
            return layer(x).data

        res = run_spmd(program, ep_size)
        got = np.concatenate(res.returns, axis=0)
        assert np.array_equal(got, ref_out)

    def test_gradients_flow_through_exchange(self):
        def program(comm):
            layer = DistributedMoELayer(
                8, 16, 4, comm, shared_rng=np.random.default_rng(1), seed=0,
                gate="topk", top_k=1,
            )
            x = Tensor(np.random.default_rng(comm.rank).normal(size=(6, 8)), requires_grad=True)
            out = layer(x)
            (out.sum() + layer.last_aux_loss).backward()
            grads_ok = x.grad is not None and layer.router.weight.grad is not None
            expert_touched = any(
                p.grad is not None for e in layer.experts for p in e.parameters()
            )
            return grads_ok, expert_touched

        res = run_spmd(program, 2)
        assert all(ok for ok, _ in res.returns)
        assert any(touched for _, touched in res.returns)

    def test_global_load_allreduced(self):
        def program(comm):
            layer = DistributedMoELayer(
                8, 16, 4, comm, shared_rng=np.random.default_rng(1), seed=0,
            )
            x = Tensor(np.random.default_rng(comm.rank).normal(size=(5, 8)))
            layer(x)
            return layer.last_load.sum(), layer.last_global_load.sum()

        res = run_spmd(program, 4)
        for local, global_ in res.returns:
            assert local == 5
            assert global_ == 20

    def test_compute_hook_called_with_rows(self):
        def program(comm):
            seen = []
            layer = DistributedMoELayer(
                8, 16, 4, comm, shared_rng=np.random.default_rng(1), seed=0,
                compute_hook=seen.append,
            )
            layer(Tensor(np.random.default_rng(0).normal(size=(6, 8))))
            return seen, layer.last_local_rows

        res = run_spmd(program, 2)
        total_rows = sum(r[1] for r in res.returns)
        assert total_rows == 12  # every slot processed exactly once
        for seen, rows in res.returns:
            assert seen == [rows]

    def test_replicated_router_identical_across_ranks(self):
        def program(comm):
            layer = DistributedMoELayer(
                8, 16, 4, comm, shared_rng=np.random.default_rng(1), seed=0,
            )
            return layer.router.weight.data.copy()

        res = run_spmd(program, 4)
        for w in res.returns[1:]:
            assert np.array_equal(w, res.returns[0])

    def test_expert_weights_independent_of_layout(self):
        """Expert gid's weights are the same whether sharded over 2 or 4."""

        def program(comm):
            layer = DistributedMoELayer(
                8, 16, 4, comm, shared_rng=np.random.default_rng(1), seed=0,
            )
            return {gid: layer.experts[i].fc_in.weight.data.copy()
                    for i, gid in enumerate(layer.global_expert_ids)}

        res2 = run_spmd(program, 2)
        res4 = run_spmd(program, 4)
        all2 = {k: v for d in res2.returns for k, v in d.items()}
        all4 = {k: v for d in res4.returns for k, v in d.items()}
        for gid in range(4):
            assert np.array_equal(all2[gid], all4[gid])

    def test_ep_size_must_divide_experts(self):
        def program(comm):
            DistributedMoELayer(8, 16, 5, comm, shared_rng=np.random.default_rng(1))

        with pytest.raises(ConfigError, match="must divide num_experts"):
            run_spmd(program, 2)


def _load_reference(layer, state):
    """Copy the reference layer's router and this shard's experts into ``layer``."""
    layer.router.weight.data = state["router.weight"].copy()
    for li, gid in enumerate(layer.global_expert_ids):
        for pname, dst in layer.experts[li].named_parameters():
            dst.data = state[f"experts.{gid}.{pname}"].copy()


def _forward_backward(layer, xdata, gids):
    """Output, x.grad, router grad and {(gid, name): grad} of one
    ``(out * out).sum() + aux`` step."""
    x = Tensor(xdata.copy(), requires_grad=True)
    out = layer(x)
    ((out * out).sum() + layer.last_aux_loss).backward()
    experts = {
        (gid, name): p.grad.copy()
        for gid, expert in zip(gids, layer.experts)
        for name, p in expert.named_parameters()
        if p.grad is not None
    }
    return out.data.copy(), x.grad.copy(), layer.router.weight.grad.copy(), experts


class TestBitExactAgainstLocal:
    """The distributed layer is the local one with a different expert
    stage: each expert sees the same rows in the same order, so outputs and
    expert gradients match the local layer bit for bit. At ep 1 the aux
    loss and capacity see the same tokens too, so x.grad and the router
    gradient match as well; above it both are per rank by design."""

    NUM_EXPERTS, D_MODEL, D_FF, ROWS = 8, 8, 16, 6

    def _compare(self, ep_size, top_k, capacity, overlap_chunks):
        kw = dict(gate="topk", top_k=top_k, capacity_factor=capacity, aux_weight=1e-2)
        ref = MoELayer(self.D_MODEL, self.D_FF, self.NUM_EXPERTS,
                       np.random.default_rng(3), **kw)
        state = ref.state_dict()
        full_x = np.random.default_rng(0).normal(
            size=(self.ROWS * ep_size, self.D_MODEL)).astype(np.float32)
        want = _forward_backward(ref, full_x, range(self.NUM_EXPERTS))

        def program(comm):
            layer = DistributedMoELayer(
                self.D_MODEL, self.D_FF, self.NUM_EXPERTS, comm,
                shared_rng=np.random.default_rng(1), overlap_chunks=overlap_chunks, **kw,
            )
            _load_reference(layer, state)
            lo = comm.rank * self.ROWS
            return _forward_backward(layer, full_x[lo: lo + self.ROWS],
                                     layer.global_expert_ids)

        ranks = run_spmd(program, ep_size).returns
        assert np.array_equal(np.concatenate([r[0] for r in ranks]), want[0])
        experts = {k: v for r in ranks for k, v in r[3].items()}
        assert experts.keys() == want[3].keys()
        for key, grad in want[3].items():
            assert np.array_equal(experts[key], grad), key
        return ranks, want

    @pytest.mark.parametrize("top_k", [1, 2])
    @pytest.mark.parametrize("capacity", [None, 1.25])
    @pytest.mark.parametrize("overlap_chunks", [1, 2])
    def test_ep1_matches_every_gradient(self, top_k, capacity, overlap_chunks):
        (got,), want = self._compare(1, top_k, capacity, overlap_chunks)
        assert np.array_equal(got[1], want[1])  # x.grad
        assert np.array_equal(got[2], want[2])  # router

    @pytest.mark.parametrize("ep_size", [2, 4])
    @pytest.mark.parametrize("top_k", [1, 2])
    @pytest.mark.parametrize("overlap_chunks", [1, 2])
    def test_sharded_matches_output_and_experts(self, ep_size, top_k, overlap_chunks):
        self._compare(ep_size, top_k, None, overlap_chunks)
