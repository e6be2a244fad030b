"""Chunked async expert dispatch (`overlap_chunks`) is bit-identical to
the blocking path — forward and backward — for every chunking width."""

import numpy as np
import pytest

from repro.parallel import DistributedMoELayer
from repro.simmpi import run_spmd
from repro.tensor import Tensor

NUM_EXPERTS, D_MODEL, D_FF = 8, 8, 16


def _build(comm, overlap_chunks, top_k, capacity):
    return DistributedMoELayer(
        D_MODEL, D_FF, NUM_EXPERTS, comm,
        shared_rng=np.random.default_rng(1), seed=0,
        gate="topk", top_k=top_k, aux_weight=1e-2,
        capacity_factor=capacity,
        overlap_chunks=overlap_chunks,
    )


def _forward_backward(comm, overlap_chunks, top_k, capacity, xdata):
    layer = _build(comm, overlap_chunks, top_k, capacity)
    x = Tensor(xdata.copy(), requires_grad=True)
    out = layer(x)
    loss = (out * out).sum() + layer.last_aux_loss
    loss.backward()
    grads = {
        name: p.grad.copy()
        for name, p in sorted(layer.named_parameters())
        if p.grad is not None
    }
    return out.data.copy(), x.grad.copy(), grads, layer.last_local_rows


@pytest.mark.parametrize("ep_size", [1, 2, 4])
@pytest.mark.parametrize("overlap_chunks", [1, 2, 4])
def test_chunked_bitwise_identical(ep_size, overlap_chunks):
    def program(comm):
        xdata = np.random.default_rng(10 + comm.rank).normal(size=(6, D_MODEL))
        base = _forward_backward(comm, 1, 2, None, xdata)
        chunked = _forward_backward(comm, overlap_chunks, 2, None, xdata)
        return base, chunked

    for base, chunked in run_spmd(program, ep_size).returns:
        out_b, gx_b, grads_b, rows_b = base
        out_c, gx_c, grads_c, rows_c = chunked
        assert np.array_equal(out_b, out_c)
        assert np.array_equal(gx_b, gx_c)
        assert grads_b.keys() == grads_c.keys()
        for name in grads_b:
            assert np.array_equal(grads_b[name], grads_c[name]), name
        assert rows_b == rows_c


@pytest.mark.parametrize("top_k", [1, 2])
def test_chunked_with_capacity_and_topk(top_k):
    """Dropped tokens (capacity) and multi-slot routing keep bit-equality."""

    def program(comm):
        xdata = np.random.default_rng(20 + comm.rank).normal(size=(8, D_MODEL))
        base = _forward_backward(comm, 1, top_k, 1.25, xdata)
        chunked = _forward_backward(comm, 4, top_k, 1.25, xdata)
        return base, chunked

    for base, chunked in run_spmd(program, 4).returns:
        assert np.array_equal(base[0], chunked[0])
        assert np.array_equal(base[1], chunked[1])
        for name in base[2]:
            assert np.array_equal(base[2][name], chunked[2][name]), name


def test_chunks_clamped_to_local_experts():
    """overlap_chunks beyond the local expert count degrades gracefully."""

    def program(comm):
        xdata = np.random.default_rng(3).normal(size=(4, D_MODEL))
        base = _forward_backward(comm, 1, 1, None, xdata)
        chunked = _forward_backward(comm, 64, 1, None, xdata)
        return np.array_equal(base[0], chunked[0])

    assert all(run_spmd(program, 4).returns)


def test_chunked_hook_rows_sum_to_unchunked():
    """The per-chunk compute hook charges exactly the unchunked rows."""

    def program(comm):
        seen = []
        layer = DistributedMoELayer(
            D_MODEL, D_FF, NUM_EXPERTS, comm,
            shared_rng=np.random.default_rng(1), seed=0,
            gate="topk", top_k=1, overlap_chunks=4,
            compute_hook=seen.append,
        )
        layer(Tensor(np.random.default_rng(0).normal(size=(6, D_MODEL))))
        return len(seen), sum(seen), layer.last_local_rows

    for calls, hooked_rows, total_rows in run_spmd(program, 2).returns:
        assert calls == 4  # one hook call per chunk
        assert hooked_rows == total_rows


def test_chunked_overlap_shows_on_virtual_clock():
    """With modelled compute inside the pipeline, the chunked forward
    finishes earlier in virtual time than the blocking one."""
    from repro.network import sunway_network

    per_row_seconds = 5e-5

    def make_program(overlap_chunks):
        def program(comm):
            layer = DistributedMoELayer(
                64, 256, NUM_EXPERTS, comm,
                shared_rng=np.random.default_rng(1), seed=0,
                gate="topk", top_k=2, overlap_chunks=overlap_chunks,
                compute_hook=lambda rows: comm.advance(rows * per_row_seconds),
            )
            x = Tensor(np.random.default_rng(30 + comm.rank).normal(size=(64, 64)))
            out = layer(x)
            return out.data.copy(), comm.clock

        return program

    net = sunway_network(4, supernode_size=2)
    blocking = run_spmd(make_program(1), 4, network=net)
    chunked = run_spmd(make_program(4), 4, network=net)
    t_blocking = max(t for _, t in blocking.returns)
    t_chunked = max(t for _, t in chunked.returns)
    assert t_chunked < t_blocking
    for (out_b, _), (out_c, _) in zip(blocking.returns, chunked.returns):
        assert np.array_equal(out_b, out_c)
    assert chunked.context.stats.overlapped_seconds["ialltoall"] > 0


def test_training_run_overlap_is_bitwise_and_faster():
    """End to end through the runner: overlap_chunks=4 must keep the loss
    trajectory bit-identical to blocking while finishing earlier in
    virtual time, with nonzero hidden-comm accounting."""
    from repro.models.configs import ModelConfig
    from repro.parallel.runner import TrainingRunConfig, run_distributed_training

    # Large enough that bandwidth + modelled compute dominate the extra
    # per-chunk latency; tiny payloads would make chunking a net loss.
    model = ModelConfig(
        vocab_size=128, max_seq_len=64, d_model=128, d_ff=512, n_layers=2,
        n_heads=4, num_experts=8, top_k=2, moe_every=1,
    )

    def run(overlap_chunks):
        return run_distributed_training(TrainingRunConfig(
            model=model, world_size=4, ep_size=4, num_steps=2,
            batch_size=8, seq_len=32, overlap_chunks=overlap_chunks,
        ))

    blocking, overlapped = run(1), run(4)
    assert overlapped.losses == blocking.losses  # bitwise-equal floats
    assert overlapped.simulated_time < blocking.simulated_time
    stats = overlapped.context.stats
    hidden = sum(stats.overlapped_seconds.values())
    assert hidden > 0
    assert stats.overlapped_seconds["ialltoall"] > 0
    assert stats.overlapped_seconds["iallreduce"] > 0
    # Byte totals must not change when only the schedule changes.
    assert (overlapped.traffic["total_bytes"] == blocking.traffic["total_bytes"])


def _moda_steps(comm, chunks, config, steps):
    """``steps`` MoDa training steps at ep 2; per step the loss, every
    synced gradient's bytes and the clocks that bound its backward."""
    from repro.data import ShardedLoader, SyntheticCorpus
    from repro.parallel import MoDaTrainer, ParallelLayout, build_groups, build_moda_model
    from repro.train import Adam

    groups = build_groups(comm, ParallelLayout(comm.size, 2))
    model = build_moda_model(config, groups, seed=11, overlap_chunks=chunks)
    forward_ends = []
    loss_of = model.loss

    def marked_loss(tokens, targets):
        loss = loss_of(tokens, targets)
        forward_ends.append(comm.clock)
        return loss

    model.loss = marked_loss
    trainer = MoDaTrainer(model, Adam(model.parameters(), lr=3e-3), groups)
    corpus = SyntheticCorpus(vocab_size=config.vocab_size, predictability=0.9, seed=2)
    loader = ShardedLoader(corpus, 4, 8, dp_rank=comm.rank, dp_size=comm.size)
    losses, grads, step_ends = [], [], []
    for step in range(steps):
        losses.append(trainer.train_step(loader.get_batch(step)).global_loss)
        grads.append([p.grad.tobytes() for p in model.parameters() if p.grad is not None])
        step_ends.append(comm.clock)
    return losses, grads, list(zip(forward_ends, step_ends))


def test_backward_is_one_exchange_per_direction_at_any_chunk_count():
    """Forward pipelined per chunk, backward one blocking alltoall per
    direction: per MoE layer and step the backward issues exactly 2
    blocking alltoalls moving the one-chunk bytes, and losses and
    gradients are bitwise equal for 1, 2 and 4 chunks (world 4, ep 2)."""
    from repro.models import tiny_config
    from repro.network import sunway_network

    config = tiny_config(num_experts=8)  # 4 local experts: 4 chunks unclamped
    steps, layers = 2, config.num_moe_layers
    runs = {}
    for chunks in (1, 2, 4):
        res = run_spmd(_moda_steps, 4, network=sunway_network(4), trace=True,
                       args=(chunks, config, steps))
        backward = []  # per (rank, step): the blocking alltoalls of its backward
        for rank, (_, _, windows) in enumerate(res.returns):
            for fwd_end, step_end in windows:
                backward.append([
                    e.nbytes for e in res.context.trace_events
                    if e.rank == rank and e.op == "alltoall"
                    and fwd_end <= e.t_start < step_end
                ])
        ialltoalls = res.context.stats.collective_calls.get("ialltoall", 0)
        runs[chunks] = ([r[:2] for r in res.returns], backward, ialltoalls)

    one_chunk = runs[1]
    for chunks, (numerics, backward, ialltoalls) in runs.items():
        assert numerics == one_chunk[0], chunks  # losses and gradients, bitwise
        assert all(len(ops) == 2 * layers for ops in backward), chunks
        assert [sum(ops) for ops in backward] == [sum(ops) for ops in one_chunk[1]]
        # The forward alone is chunked: 2 exchanges per chunk, layer, step
        # and EP group (each group counts its collectives once).
        assert ialltoalls == (0 if chunks == 1 else 2 * chunks * layers * steps * 2)


def test_fp16_payloads_cross_the_wire_as_two_bytes():
    """World 4, ep 2, 2 chunks, traced: under mixed precision each step's
    gradient sync moves 2 B per synced element and the forward ialltoalls
    half the fp32 run's bytes, while the backward alltoalls (activation
    gradients, computed at fp32 precision) move the fp32 run's bytes."""
    from repro.models import tiny_config
    from repro.parallel.runner import TrainingRunConfig, run_distributed_training

    config, steps, world, ep = tiny_config(), 2, 4, 2
    synced = config.replicated_params + (
        config.num_moe_layers * config.num_experts // ep * config.ffn_expert_params
    )

    def bytes_per_step(mixed):
        res = run_distributed_training(TrainingRunConfig(
            model=config, world_size=world, ep_size=ep, num_steps=steps,
            batch_size=2, seq_len=8, overlap_chunks=2, mixed_precision=mixed,
            trace=True,
        ))
        per = {}  # (rank, op) -> bytes per step
        for op in ("iallreduce", "ialltoall", "alltoall"):
            for rank in range(world):
                nbytes = [e.nbytes for e in res.trace if e.rank == rank and e.op == op]
                assert nbytes and len(nbytes) % steps == 0, (op, rank)
                per[rank, op] = [int(sum(s)) for s in np.array_split(nbytes, steps)]
        return per

    fp32, fp16 = bytes_per_step(False), bytes_per_step(True)
    for rank in range(world):
        assert fp32[rank, "iallreduce"] == [4 * synced] * steps
        assert fp16[rank, "iallreduce"] == [2 * synced] * steps
        assert fp16[rank, "ialltoall"] == [b // 2 for b in fp32[rank, "ialltoall"]]
        assert all(b % 2 == 0 for b in fp32[rank, "ialltoall"])
        assert fp16[rank, "alltoall"] == fp32[rank, "alltoall"]
