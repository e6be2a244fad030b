"""Workloads ``train_moda_w8`` and ``train_single_w1`` and their probes.

One rank program serves both: ``strategy.build`` then ``trainer.train_step``
in a closed loop, timed by rank 0 (ranks are lock-stepped by the step's
world-wide collectives). The two workloads differ only in world size and
expert-parallel width, so a tensor/amp/moe gain moves both and a simmpi
gain moves only the world-8 one.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.hardware import sunway_machine
from repro.models import tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig
from repro.simmpi import run_spmd

from bench.calibrate import calibrate, median_seconds, peak_rss_mb, slowness
from bench.spans import TracedComm, Tracer, self_times
from bench.timing import median, percentile

MODEL = dict(n_layers=4, num_experts=8, d_model=64, d_ff=128, top_k=2)
BATCH, SEQ = 4, 32


@dataclass(frozen=True)
class Shape:
    world: int
    ep: int
    #: Untimed steps before the window (caches fill, loss scaler settles).
    warmup: int
    #: Timed steps every run completes; the simulated-clock metrics and the
    #: loss are read off exactly these, so they do not depend on host speed.
    prefix: int
    #: Timed steps of the fixed-length traced/untraced pair.
    trace_steps: int


SHAPES = {
    "train_moda_w8": Shape(world=8, ep=4, warmup=2, prefix=6, trace_steps=16),
    "train_single_w1": Shape(world=1, ep=1, warmup=8, prefix=40, trace_steps=100),
}
QUICK = dict(warmup=1, prefix=5, trace_steps=5)
BARRIER_TIMEOUT_S = 60.0


def shape_of(workload: str, quick: bool) -> Shape:
    shape = SHAPES[workload]
    return Shape(shape.world, shape.ep, **QUICK) if quick else shape


class _Gate:
    """What rank 0 decides for the lock-stepped ranks: when to stop, when to calibrate.

    Every rank checks ``step < limit`` before a step. Rank 0 may lower
    ``limit`` to ``step + 2`` right after finishing ``step``: no rank can
    have started ``step + 2`` yet, because finishing ``step + 1`` takes a
    world-wide collective that rank 0 has not entered.

    Before every ``every``-th timed step the rank threads meet at a barrier
    of the benchmark's own (nothing simmpi sees) and sleep there while rank
    0 samples the machine's slowness; with the others running the sample
    would time the GIL, not the machine.
    """

    def __init__(self, world: int, warmup: int, prefix: int, min_timed: int,
                 window: float | None, every: int, tracer: Tracer):
        self.tracer = tracer
        self.warmup = warmup
        self.prefix = prefix
        self.min_timed = min_timed
        self.window = window
        self.every = every
        self.limit = warmup + min_timed if window is None else sys.maxsize
        self.sync = threading.Barrier(world)
        self.slowness: list[float] = []
        self.timed_start = 0.0
        self.first_op_wall = 0.0
        self.peak_rss_mb = 0.0

    def before_step(self, step: int, rank: int) -> None:
        timed = step - self.warmup
        if timed < 0 or timed % self.every:
            return
        self.sync.wait(BARRIER_TIMEOUT_S)
        if rank == 0:
            if timed == 0:
                self.first_op_wall = time.time()
            with self.tracer.span("bench.calibrate"):
                self.slowness.append(slowness())
            if timed == 0:
                self.timed_start = time.perf_counter()
        self.sync.wait(BARRIER_TIMEOUT_S)

    def step_done(self, step: int) -> None:
        done = step + 1 - self.warmup
        if done == self.prefix:
            # Read where every run has done the same work (see closed_loop).
            self.peak_rss_mb = peak_rss_mb()
        if self.window is None or self.limit != sys.maxsize or done < 1:
            return
        elapsed = time.perf_counter() - self.timed_start
        # One more step always runs after the decision; stop when it and
        # half of a further one would no longer fit.
        if done + 1 >= self.min_timed and elapsed + 1.5 * elapsed / done >= self.window:
            self.limit = step + 2


def _program(comm, cfg, machine, gate: _Gate, tracer: Tracer, parent):
    rank = comm.rank
    if tracer.enabled:
        tracer.adopt(parent, rank)
        comm = TracedComm(comm, tracer)
    with tracer.span("parallel.build"):
        trainer = cfg.resolve_strategy().build(comm, cfg, machine)
    losses, imbalances, clocks, step_s = [], [], [], []
    step = 0
    while step < gate.limit:
        gate.before_step(step, rank)
        t0 = time.perf_counter()
        with tracer.span("parallel.train_step"):
            outcome = trainer.train_step(step)
        step_s.append(time.perf_counter() - t0)
        losses.append(outcome.global_loss)
        imbalances.append(outcome.imbalance)
        clocks.append(comm.clock)
        if rank == 0:
            gate.step_done(step)
        step += 1
    return dict(losses=losses, imbalances=imbalances, clocks=clocks, step_s=step_s)


def launch(world: int, ep: int, seed: int, *, warmup: int, prefix: int, min_timed: int,
           window: float | None, tracer: Tracer,
           mixed_precision: bool = True, observe: bool = False) -> dict:
    """One SPMD training launch; returns rank 0's timings and every rank's losses."""
    with tracer.span("bench.setup"):
        cfg = TrainingRunConfig(
            model=tiny_config(**MODEL), world_size=world, ep_size=ep,
            batch_size=BATCH, seq_len=SEQ, mixed_precision=mixed_precision,
            overlap_chunks=2, seed=seed, observe=observe,
        )
        cfg.resolve_strategy().validate(cfg)
        network = sunway_network(world)
        machine = sunway_machine(num_nodes=world)
        # A slowness sample about every two seconds of steps.
        gate = _Gate(world, warmup, prefix, min_timed, window,
                     every=4 if world > 1 else 25, tracer=tracer)
    with tracer.span("simmpi.run_spmd") as span:
        parent = None if span is None else span["id"]
        result = run_spmd(
            _program, world, network=network, seed=seed, observe=observe,
            args=(cfg, machine, gate, tracer, parent),
        )
    with tracer.span("bench.calibrate"):
        gate.slowness.append(slowness())
    with tracer.span("bench.aggregate"):
        ranks = result.returns
        steps = len(ranks[0]["losses"])
        raw = ranks[0]["step_s"][warmup:]
        return dict(
            steps=steps,
            raw_op_s=raw,
            op_s=calibrate(raw, gate.slowness, gate.every),
            slowness=gate.slowness,
            first_op_wall=gate.first_op_wall,
            peak_rss_mb=gate.peak_rss_mb,
            losses=[r["losses"] for r in ranks],
            # Virtual makespan at the end of each step: the slowest rank.
            clocks=[max(r["clocks"][i] for r in ranks) for i in range(steps)],
            imbalance=float(np.mean([r["imbalances"] for r in ranks])),
            traffic=result.stats.summary(),
            phases=result.context.phase_seconds,
        )


def _check_losses(run: dict) -> tuple[int, list[str]]:
    """One check per step (finite, equal on every rank) plus the descent."""
    failures = []
    per_rank = run["losses"]
    for step, loss in enumerate(per_rank[0]):
        if not math.isfinite(loss):
            failures.append(f"step {step}: non-finite loss {loss}")
        elif any(other[step] != loss for other in per_rank[1:]):
            failures.append(f"step {step}: ranks disagree on the loss")
    if not per_rank[0][-1] < per_rank[0][0]:
        failures.append(
            f"loss did not fall: {per_rank[0][0]} -> {per_rank[0][-1]}"
        )
    return run["steps"] + 1, failures


def run(spec, tracer: Tracer) -> dict:
    shape = shape_of(spec.workload, spec.quick)
    min_timed = shape.prefix if spec.window is not None else shape.trace_steps
    out = launch(shape.world, shape.ep, spec.seed, warmup=shape.warmup,
                 prefix=shape.prefix, min_timed=min_timed, window=spec.window,
                 tracer=tracer)
    attempted, failures = _check_losses(out)
    tokens_per_step = shape.world * BATCH * SEQ
    last = shape.warmup + shape.prefix - 1
    sim_step_s = (out["clocks"][last] - out["clocks"][shape.warmup - 1]) / shape.prefix
    steps = out["steps"]
    traffic = out["traffic"]
    return dict(
        **{key: out[key] for key in
           ("op_s", "raw_op_s", "slowness", "first_op_wall", "peak_rss_mb")},
        work_per_op=tokens_per_step,
        attempted=attempted,
        failures=failures,
        sim={
            "sim_tokens_per_s": tokens_per_step / sim_step_s,
            "train.final_loss": out["losses"][0][last],
        },
        # Totals over build + every step, divided by the steps run: exact
        # for a fixed seed when the step count is fixed (traced runs).
        counts={
            "moe.load_imbalance": out["imbalance"],
            "simmpi.collective_calls_per_step":
                sum(traffic["collective_calls"].values()) / steps,
            "simmpi.collective_bytes_per_step":
                sum(traffic["collective_bytes"].values()) / steps,
            "simmpi.exposed_sim_s_per_step":
                sum(traffic["exposed_seconds"].values()) / steps,
            "simmpi.hidden_sim_s_per_step":
                sum(traffic["overlapped_seconds"].values()) / steps,
            **{f"parallel.phase_sim_s.{name}": out["phases"].get(name, 0.0) / steps
               for name in ("forward", "backward", "grad_sync")},
        },
        span_metrics=(_span_metrics(tracer, shape.warmup, median(out["slowness"]))
                      if tracer.enabled else {}),
    )


def _span_metrics(tracer: Tracer, warmup: int, slow: float) -> dict:
    """Per-layer numbers read off rank 0's step spans (calibrated by ``slow``)."""
    selfs = self_times(tracer.records)
    mine = sorted((r for r in tracer.records if r["rank"] == 0), key=lambda r: r["start"])
    build = next(r for r in mine if r["name"] == "parallel.build")
    steps = [r for r in mine if r["name"] == "parallel.train_step"][warmup:]
    total = [r["end"] - r["start"] for r in steps]
    own = [selfs[r["id"]] for r in steps]
    return {
        "parallel.build_ms": (build["end"] - build["start"]) * 1e3 / slow,
        "parallel.train_step_ms_p50": median(total) * 1e3 / slow,
        "parallel.train_step_ms_p90": percentile(total, 90) * 1e3 / slow,
        "parallel.step_self_ms": median(own) * 1e3 / slow,
        "simmpi.in_step_share": 1.0 - sum(own) / sum(total),
    }


# ---------------------------------------------------------------------- #
# Probes (traced run only; each is reported by its home workload)
# ---------------------------------------------------------------------- #


def probes(spec, reference_op_s: float) -> dict:
    if spec.workload == "train_single_w1":
        return _probes_single(spec)
    return _probes_moda(spec, reference_op_s)


def _step_median(world: int, ep: int, seed: int, steps: int, **kwargs) -> float:
    out = launch(world, ep, seed, warmup=2, prefix=steps, min_timed=steps,
                 window=None, tracer=Tracer("probe", enabled=False), **kwargs)
    return median(out["op_s"])


def _probes_single(spec) -> dict:
    """tensor / amp / moe / models / train / data / obs probes at world-1 shapes."""
    from repro.data import ShardedLoader, SyntheticCorpus
    from repro.models import MoELanguageModel
    from repro.models.moe_layer import MoELayer
    from repro.moe.dispatch import build_dispatch
    from repro.tensor import (Tensor, cross_entropy, gather_rows, layer_norm,
                              quantize, scatter_rows, softmax)
    from repro.train.optim import Adam

    calls = 5 if spec.quick else 200
    cfg = tiny_config(**MODEL)
    rng = np.random.default_rng(spec.seed)
    tokens_n, d_model, d_ff, vocab = BATCH * SEQ, cfg.d_model, cfg.d_ff, cfg.vocab_size

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    def us(fn, n=calls):
        return median_seconds(fn, n) * 1e6

    x, w = leaf(tokens_n, d_model), leaf(d_model, d_ff)
    logits = leaf(tokens_n, vocab)
    gain, bias = leaf(d_model), leaf(d_model)
    targets = rng.integers(0, vocab, size=tokens_n)
    idx = rng.integers(0, tokens_n, size=tokens_n * cfg.top_k)
    raw = rng.standard_normal((tokens_n, d_ff)).astype(np.float32)
    out = {
        "tensor.matmul_fwdbwd_us": us(lambda: (x @ w).sum().backward()),
        "tensor.softmax_fwdbwd_us": us(lambda: softmax(logits).sum().backward()),
        "tensor.layer_norm_fwdbwd_us":
            us(lambda: layer_norm(x, gain, bias).sum().backward()),
        "tensor.cross_entropy_fwdbwd_us":
            us(lambda: cross_entropy(logits, targets).backward()),
        "tensor.scatter_rows_fwdbwd_us":
            us(lambda: scatter_rows(gather_rows(x, idx), idx, tokens_n).sum().backward()),
        "tensor.gather_rows_fwdbwd_us": us(lambda: gather_rows(x, idx).sum().backward()),
        "tensor.quantize_fp16_us": us(lambda: quantize(raw, "fp16")),
    }

    layer = MoELayer(d_model, d_ff, cfg.num_experts, np.random.default_rng(spec.seed),
                     top_k=cfg.top_k)
    router_logits = leaf(tokens_n, cfg.num_experts)
    routed = layer.gate(router_logits, rng).indices
    out.update({
        "moe.gate_fwd_us": us(lambda: layer.gate(router_logits, rng)),
        "moe.build_dispatch_us": us(lambda: build_dispatch(routed, cfg.num_experts)),
        "moe.layer_fwdbwd_us": us(lambda: layer(x).sum().backward(), max(calls // 4, 3)),
    })

    model = MoELanguageModel(cfg, seed=spec.seed)
    loader = ShardedLoader(SyntheticCorpus(vocab_size=vocab, seed=spec.seed), BATCH, SEQ)
    batch = loader.get_batch(0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    few = max(calls // 8, 3)
    forward = us(lambda: model.loss(batch.tokens, batch.targets), few)
    both = us(lambda: model.loss(batch.tokens, batch.targets).backward(), few)
    steps = iter(range(10**9))
    out.update({
        "models.forward_us": forward,
        "models.backward_us": both - forward,
        "train.optimizer_step_us": us(optimizer.step, few),
        "data.next_batch_us": us(lambda: loader.get_batch(next(steps))),
    })

    n = 5 if spec.quick else 40
    mixed = _step_median(1, 1, spec.seed, n)
    fp32 = _step_median(1, 1, spec.seed, n, mixed_precision=False)
    observed = _step_median(1, 1, spec.seed, n, observe=True)
    out["amp.host_overhead_share"] = (mixed - fp32) / fp32
    out["obs.overhead_share.train"] = (observed - mixed) / mixed
    return out


def _roundtrip_us(world: int, body, calls: int) -> float:
    """Median calibrated host µs of one ``body(comm)`` on rank 0 of ``world`` ranks."""

    def program(comm):
        for _ in range(3):
            body(comm)
        samples = []
        for _ in range(calls):
            t0 = time.perf_counter()
            body(comm)
            samples.append(time.perf_counter() - t0)
        return median(samples)

    before = slowness()
    raw_s = run_spmd(program, world, network=sunway_network(world)).returns[0]
    return raw_s * 1e6 / (0.5 * (before + slowness()))


def _probes_moda(spec, step_w8_s: float) -> dict:
    """simmpi probes at world 8 (ep group of 4) and the thread-overhead share."""
    shape = SHAPES["train_moda_w8"]
    world, ep = shape.world, shape.ep
    calls = 5 if spec.quick else 200
    model = tiny_config(**MODEL)
    dense_grad = np.zeros(model.total_params - model.moe_params, dtype=np.float32)
    rows = np.zeros((BATCH * SEQ * model.top_k // ep, model.d_model), dtype=np.float32)

    def in_ep_group(body):
        groups = {}

        def wrapped(comm):
            if comm.world_rank not in groups:
                groups[comm.world_rank] = comm.Split(comm.rank // ep, comm.rank)
            body(groups[comm.world_rank])
        return wrapped

    def sendrecv(comm):
        comm.sendrecv(rows, dest=(comm.rank + 1) % comm.size,
                      source=(comm.rank - 1) % comm.size)

    out = {
        "simmpi.launch_ms": median_seconds(
            lambda: run_spmd(lambda comm: None, world, network=sunway_network(world)),
            max(calls // 10, 3)) * 1e3,
        "simmpi.barrier_rt_us": _roundtrip_us(world, lambda c: c.barrier(), calls),
        "simmpi.allreduce_rt_us":
            _roundtrip_us(world, lambda c: c.allreduce(dense_grad), calls),
        "simmpi.alltoall_rt_us": _roundtrip_us(
            world, in_ep_group(lambda c: c.alltoall([rows] * c.size)), calls),
        "simmpi.ialltoall_wait_rt_us": _roundtrip_us(
            world, in_ep_group(lambda c: c.ialltoall([rows] * c.size).wait()), calls),
        "simmpi.sendrecv_rt_us": _roundtrip_us(world, sendrecv, calls),
    }
    single = SHAPES["train_single_w1"]
    step_w1_s = _step_median(single.world, single.ep, spec.seed, 5 if spec.quick else 40)
    out["simmpi.overhead_share"] = 1.0 - world * step_w1_s / step_w8_s
    return out
