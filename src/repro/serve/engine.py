"""Expert-parallel decode engine: continuous batching on simulated ranks.

Each EP rank owns a shard of every MoE layer's experts (the training
layout) and a shard of the request stream (round-robin). One engine
iteration runs a *single* mixed forward per rank — freshly admitted
requests contribute their whole prompt (prefill) while running requests
contribute one token (decode), padded into a ragged batch over the shared
:class:`~repro.serve.kvcache.KVCache`. Because collectives come only from
:class:`~repro.parallel.ep.DistributedMoELayer`, every rank executes an
identical collective sequence per iteration regardless of how many
requests it has in flight (idle ranks run a one-token dummy forward), so
the SPMD program never deadlocks.

Time is the simmpi virtual clock: alltoall/allreduce cost comes from the
network model, dense/expert compute from :class:`DecodeTimer` (the
forward-only sibling of :class:`~repro.perf.stepmodel.ComputeTimer`), and
arrivals/SLOs/latency histograms all live on the same axis, measured
through the :class:`~repro.simmpi.RunContext` spine training runs use.

The sequential baseline (:func:`run_sequential_baseline`) serves the same
workload FIFO depth-1 per rank with full uncached re-forwards per token —
exactly what looping :func:`repro.models.generate` (``use_cache=False``)
over the requests would do on the same EP world.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.hardware.specs import MachineSpec, sunway_machine
from repro.models.configs import ModelConfig
from repro.models.transformer import MoELanguageModel
from repro.network import AlgorithmPolicy, sunway_network
from repro.parallel.ep import ep_moe_factory
from repro.perf.flops import (
    dense_forward_flops_per_token,
    expert_forward_flops_per_row,
)
from repro.serve.kvcache import KVCache
from repro.serve.scheduler import ContinuousBatchScheduler, Request
from repro.simmpi import MIN, Comm, run_spmd
from repro.tensor import no_grad
from repro.train.metrics import LatencyStats
from repro.utils.seeding import derive_seed

__all__ = [
    "DecodeTimer",
    "ServeConfig",
    "ServeResult",
    "build_requests",
    "run_sequential_baseline",
    "run_serving",
]


@dataclass(frozen=True)
class ServeConfig:
    """Everything one serving run needs (mirrors ``TrainingRunConfig``).

    ``arrival_rate`` is requests per *virtual* second (None: all requests
    arrive at t=0); ``slo_ms`` is a per-request completion deadline in
    virtual milliseconds (None: no eviction). Each rank runs
    ``max_batch_size`` continuous-batching slots (KV-cached, join
    mid-flight); ``max_batch_size=1`` is sequential FIFO serving, and with
    ``use_cache=False`` it is the uncached ``generate()`` baseline.
    """

    model: ModelConfig
    ep_size: int = 1
    num_requests: int = 16
    arrival_rate: float | None = None
    #: Piecewise-constant load ramp: ``((t0, rate0), (t1, rate1), ...)``
    #: — from virtual second ``ti`` arrivals draw at ``ratei`` req/s.
    #: Mutually exclusive with ``arrival_rate``; segments must start at
    #: t=0 and be strictly time-ordered. This is how a benchmark
    #: saturates a fixed fleet mid-run (the autoscaler's raison d'être).
    arrival_ramp: tuple[tuple[float, float], ...] | None = None
    prompt_len: int = 8
    prompt_len_max: int | None = None
    max_new_tokens: int = 16
    max_batch_size: int = 8
    slo_ms: float | None = None
    use_cache: bool = True
    greedy: bool = True
    seed: int = 0
    expert_capacity: int | None = None
    alltoall_algorithm: str | None = None
    #: Chunked async expert dispatch width for decode alltoalls (>1
    #: pipelines dispatch/combine against expert compute; bit-identical).
    overlap_chunks: int = 1
    supernode_size: int = 256
    timeout: float = 600.0
    trace: bool = False
    #: Give the run a live metric registry + router telemetry
    #: (``result.context.metrics`` / ``.router``).
    observe: bool = False
    #: SLO classes for the synthetic workload: tier 0 is premium; with
    #: >1 tiers, requests draw a uniform tier from a dedicated rng stream
    #: (the token/arrival streams are untouched, so single-tier workloads
    #: stay bit-identical to historical ones).
    num_tiers: int = 1
    #: Load shedding: arrived requests of tier >= shed_tier are rejected
    #: while the per-rank backlog exceeds ``queue_depth`` (None = never).
    shed_tier: int | None = None
    #: Backlog cap (arrived waiting + active) that triggers shedding;
    #: defaults to ``2 * max_batch_size`` when ``shed_tier`` is set.
    queue_depth: int | None = None
    #: Total committed KV tokens allowed across a rank's cache rows (the
    #: paged pool's memory pressure). When an iteration would overflow it,
    #: the engine evicts the lowest-priority active slot and retries the
    #: admit instead of ferrying a fatal CacheOverflow out of the run.
    kv_token_budget: int | None = None

    def __post_init__(self) -> None:
        for name in ("ep_size", "num_requests", "max_batch_size", "overlap_chunks",
                     "supernode_size", "num_tiers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.model.num_experts % self.ep_size != 0:
            raise ConfigError(
                f"ep_size={self.ep_size} must divide "
                f"num_experts={self.model.num_experts}"
            )
        if not self.use_cache and self.max_batch_size != 1:
            raise ConfigError(
                f"use_cache=False needs max_batch_size=1, got "
                f"{self.max_batch_size} (ragged decode without a KV cache "
                "would re-prefill every row every iteration)"
            )
        if self.prompt_len < 1 or self.max_new_tokens < 1:
            raise ConfigError("prompt_len and max_new_tokens must be >= 1")
        pmax = self.prompt_len_max if self.prompt_len_max is not None else self.prompt_len
        if pmax < self.prompt_len:
            raise ConfigError(
                f"prompt_len_max={pmax} must be >= prompt_len={self.prompt_len}"
            )
        if pmax + self.max_new_tokens > self.model.max_seq_len:
            longest = "prompt_len" if self.prompt_len_max is None else "prompt_len_max"
            raise ConfigError(
                f"{longest}={pmax} + max_new_tokens={self.max_new_tokens} "
                f"exceeds max_seq_len={self.model.max_seq_len}; cached rows "
                "never roll over so requests must fit the window"
            )
        if self.arrival_rate is not None and not self.arrival_rate > 0:
            raise ConfigError(
                f"arrival_rate must be > 0 req/s, got {self.arrival_rate}"
            )
        if self.arrival_ramp is not None:
            if self.arrival_rate is not None:
                raise ConfigError(
                    "arrival_rate and arrival_ramp are mutually exclusive"
                )
            if not self.arrival_ramp:
                raise ConfigError("arrival_ramp must have >= 1 segment")
            if self.arrival_ramp[0][0] != 0.0:
                raise ConfigError(
                    f"arrival_ramp must start at t=0, got "
                    f"{self.arrival_ramp[0][0]}"
                )
            for i, (t_seg, rate) in enumerate(self.arrival_ramp):
                if not rate > 0:
                    raise ConfigError(
                        f"arrival_ramp rates must be > 0 req/s, got {rate}"
                    )
                if i > 0 and not t_seg > self.arrival_ramp[i - 1][0]:
                    raise ConfigError(
                        "arrival_ramp segment times must be strictly "
                        f"increasing, got {t_seg} after "
                        f"{self.arrival_ramp[i - 1][0]}"
                    )
        if self.slo_ms is not None and not self.slo_ms > 0:
            raise ConfigError(f"slo_ms must be > 0, got {self.slo_ms}")
        if self.expert_capacity is not None and self.expert_capacity < 1:
            raise ConfigError(
                f"expert_capacity must be >= 1 rows, got {self.expert_capacity}"
            )
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0 wall seconds, got {self.timeout}")
        AlgorithmPolicy(alltoall=self.alltoall_algorithm or "auto")
        if self.shed_tier is not None and not 0 <= self.shed_tier < self.num_tiers:
            raise ConfigError(
                f"shed_tier must be in [0, num_tiers={self.num_tiers}), "
                f"got {self.shed_tier}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.kv_token_budget is not None:
            per_request = pmax + self.max_new_tokens
            if self.kv_token_budget < per_request:
                raise ConfigError(
                    f"kv_token_budget={self.kv_token_budget} cannot hold even "
                    f"one request ({per_request} tokens); raise the budget or "
                    "shrink prompts"
                )

    @property
    def batching(self) -> str:
        """The serving policy's name in reports: ``"continuous"`` (KV-cached
        slots) or ``"sequential"`` (the uncached baseline)."""
        return "continuous" if self.use_cache else "sequential"

    @property
    def effective_queue_depth(self) -> int | None:
        """Backlog cap for shedding (default 2x batch when shedding is on)."""
        if self.queue_depth is not None:
            return self.queue_depth
        if self.shed_tier is not None:
            return 2 * self.max_batch_size
        return None


@dataclass
class ServeResult:
    """Aggregated outcome of a serving run.

    ``throughput`` is decoded tokens per virtual second of makespan —
    prefill time included, since a serving system pays it. ``requests``
    holds one flat record per request (see ``Request.record``).
    """

    config: ServeConfig
    completed: int
    evicted: int
    decode_tokens: int
    simulated_time: float
    ttft: LatencyStats
    token_latency: LatencyStats
    requests: list[dict] = field(default_factory=list)
    clocks: list[float] = field(default_factory=list)
    context: Any = None
    meta: dict = field(default_factory=dict)
    #: Requests rejected by admission-control load shedding.
    shed: int = 0
    #: Admission timestamps keyed by rid (virtual seconds; absent for
    #: requests that never reached a slot). Carried out of band so the
    #: per-request ``records`` stay byte-identical to historical output.
    admitted_at: dict[int, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Decoded tokens per virtual second."""
        if self.simulated_time <= 0:
            return 0.0
        return self.decode_tokens / self.simulated_time

    def metrics_record(self) -> dict[str, Any]:
        """One flat summary record for :class:`MetricsLogger`."""
        record = {
            "batching": self.config.batching,
            "use_cache": self.config.use_cache,
            "ep_size": self.config.ep_size,
            "num_requests": self.config.num_requests,
            "completed": self.completed,
            "evicted": self.evicted,
            "shed": self.shed,
            "decode_tokens": self.decode_tokens,
            "simulated_time": self.simulated_time,
            "throughput_tok_s": self.throughput,
        }
        record.update(self.ttft.summary(prefix="ttft_"))
        record.update(self.token_latency.summary(prefix="token_"))
        return record


class DecodeTimer:
    """Forward-only modelled compute time for serving iterations.

    The training :class:`~repro.perf.stepmodel.ComputeTimer` charges
    forward+backward at a fixed sequence length; decode needs forward-only
    cost at *per-row* context lengths (attention over ``ctx + i`` cached
    keys for the i-th new token). Derived from the same
    :mod:`repro.perf.flops` terms, so measured serving and training
    curves share one cost model.
    """

    def __init__(self, config: ModelConfig, machine: MachineSpec):
        self.config = config
        self.machine = machine
        self._node_flops = (
            machine.node.flops(config.dtype) * machine.compute_efficiency
        )
        #: Attention-score FLOPs per (token, attended position) pair.
        self._quad = config.n_layers * 4.0 * config.d_model
        # Linear dense FLOPs per token (everything except expert MLPs and
        # the attention-score matmuls, which depend on context length).
        self._base = dense_forward_flops_per_token(config, 1) - self._quad
        self._expert_fwd_per_row = expert_forward_flops_per_row(config)

    def dense_time(self, ctx: np.ndarray, valid: np.ndarray) -> float:
        """Dense forward time for a ragged batch.

        Row b feeds ``valid[b]`` new tokens on top of ``ctx[b]`` cached
        ones; its i-th token attends over ``ctx[b] + i + 1`` positions.
        With ``ctx=0`` this is exactly a full prefill/uncached forward.
        """
        v = np.asarray(valid, dtype=np.float64)
        c = np.asarray(ctx, dtype=np.float64)
        flops = float(
            (v * self._base + self._quad * (c * v + v * (v + 1) / 2.0)).sum()
        )
        return flops / self._node_flops

    def expert_time(self, rows: int) -> float:
        """Forward time for ``rows`` routed through one expert shard."""
        return rows * self._expert_fwd_per_row / self._node_flops


def build_requests(cfg: ServeConfig) -> list[Request]:
    """Deterministic synthetic workload from the config seed.

    Poisson arrivals (exponential interarrivals at ``arrival_rate``),
    ragged prompt lengths in [prompt_len, prompt_len_max], uniform random
    prompt tokens. Identical on every rank, so request sharding needs no
    communication.
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, "serve-workload"))
    n = cfg.num_requests
    if cfg.arrival_ramp is not None:
        # Piecewise-constant Poisson: each interarrival draws at the rate
        # active when the previous request landed. One exponential draw
        # per request, same stream consumption as the fixed-rate path.
        ramp = cfg.arrival_ramp
        draws = rng.exponential(1.0, size=n)  # unit-rate; scaled below
        arrivals = np.empty(n)
        t = 0.0
        for i in range(n):
            rate = ramp[0][1]
            for t_seg, seg_rate in ramp:
                if t >= t_seg:
                    rate = seg_rate
            t += draws[i] / rate
            arrivals[i] = t
    elif cfg.arrival_rate is None:
        arrivals = np.zeros(n)
    else:
        arrivals = np.cumsum(rng.exponential(1.0 / cfg.arrival_rate, size=n))
    pmax = cfg.prompt_len_max if cfg.prompt_len_max is not None else cfg.prompt_len
    lens = rng.integers(cfg.prompt_len, pmax + 1, size=n)
    slo = None if cfg.slo_ms is None else cfg.slo_ms / 1e3
    if cfg.num_tiers > 1:
        # Dedicated stream: tiering never perturbs prompts or arrivals.
        tier_rng = np.random.default_rng(derive_seed(cfg.seed, "serve-tiers"))
        tiers = tier_rng.integers(0, cfg.num_tiers, size=n)
    else:
        tiers = np.zeros(n, dtype=np.int64)
    return [
        Request(
            rid=i,
            prompt=rng.integers(0, cfg.model.vocab_size, size=int(lens[i])),
            max_new_tokens=cfg.max_new_tokens,
            arrival=float(arrivals[i]),
            slo=slo,
            tier=int(tiers[i]),
        )
        for i in range(n)
    ]


def _serve_model(
    cfg: ServeConfig, comm: Comm, timer: DecodeTimer,
    pool: dict[int, tuple] | None,
) -> MoELanguageModel:
    """This rank's EP-sharded model in eval mode, bound to ``comm``.

    ``pool`` (one fleet run's, keyed by EP rank) keeps the model across
    segments: every replica shares ``cfg.seed``, so rank r's weights are
    the same in every world. Each segment rebinds every MoE layer to its
    world — communicator and compute hook — and restores the layer's rng
    to its post-build state, so noisy and random gates draw exactly what a
    fresh build draws.
    """

    def compute_hook(rows: int) -> None:
        comm.advance(timer.expert_time(rows))

    built = None if pool is None else pool.get(comm.rank)
    if built is None:
        moe_factory = ep_moe_factory(
            cfg.model, comm, cfg.seed, cfg.alltoall_algorithm, None,
            cfg.overlap_chunks,
        )
        model = MoELanguageModel(cfg.model, seed=cfg.seed, moe_factory=moe_factory)
        model.eval()
        if cfg.expert_capacity is not None:
            for layer in model.moe_layers():
                layer.inference_capacity = cfg.expert_capacity
        built = (
            model, [layer._rng.bit_generator.state for layer in model.moe_layers()]
        )
        if pool is not None:
            pool[comm.rank] = built
    model, rng_states = built
    for layer, state in zip(model.moe_layers(), rng_states):
        layer.ep_comm = comm
        layer.compute_hook = compute_hook
        layer._rng.bit_generator.state = state
    return model


def _sample_token(
    logits: np.ndarray, cfg: ServeConfig, rng: np.random.Generator | None
) -> int:
    if cfg.greedy:
        return int(logits.argmax())
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def _serve_rank(
    comm: Comm,
    cfg: ServeConfig,
    machine: MachineSpec,
    requests: list[Request] | None,
    pool: dict[int, tuple] | None,
) -> dict:
    """The SPMD rank program: one scheduler + model + cache per rank."""
    timer = DecodeTimer(cfg.model, machine)
    model = _serve_model(cfg, comm, timer, pool)
    sched = ContinuousBatchScheduler(
        cfg.max_batch_size,
        queue_depth=cfg.effective_queue_depth,
        shed_tier=cfg.shed_tier,
    )
    workload = build_requests(cfg) if requests is None else requests
    for i, req in enumerate(workload):
        if i % comm.size == comm.rank:
            sched.submit(req)
    cache = (
        KVCache.for_model(
            model,
            batch_size=sched.max_batch_size,
            capacity=cfg.model.max_seq_len,
            token_budget=cfg.kv_token_budget,
        )
        if cfg.use_cache
        else None
    )
    samplers: dict[int, np.random.Generator] = {}
    token_lat: list[float] = []
    context = comm.context
    dummy = np.zeros((1, 1), dtype=np.int64)
    iteration = 0

    def dropped(kind: str, metric: str, now: float, req: Request) -> None:
        """Rank 0 notes an admission-control casualty (event + tier counter)."""
        if comm.rank == 0:
            context.record_event(kind, t=now, rid=req.rid, tier=req.tier)
            context.metrics.counter(metric, tier=req.tier).inc()

    def shed_and_release(now: float) -> None:
        """Admission control + free the cache rows of retired requests."""
        for req in sched.shed_overloaded(now):
            dropped("shed", "serve_shed", now, req)
        for req in sched.preempt_for_premium(now):
            dropped("preempt", "serve_preempted", now, req)
        if cache is not None and cache.token_budget is not None:
            held = {req.slot for req in sched.active}
            stale = [s for s in range(cache.batch_size) if s not in held]
            if stale:
                cache.reset(stale)

    def relieve_cache_pressure(admitted: list[Request]) -> None:
        """Evict lowest-priority slots until the planned commit fits.

        Graceful degradation: instead of letting the forward's commit blow
        the token budget (a fatal :class:`CacheOverflow`), sacrifice the
        lowest-priority active request — highest tier, youngest — reclaim
        its row, and keep serving everyone else.
        """
        if cache is None or cache.token_budget is None:
            return
        while True:
            planned = sum(
                int(req.prompt.size) if req in admitted else 1
                for req in sched.active
            )
            if cache.fits(planned):
                return
            victim = sched.lowest_priority_active()
            if victim is None:
                return
            slot = victim.slot
            now = comm.clock
            sched.evict(victim, now, reason="cache")
            cache.reset([slot])
            if victim in admitted:
                admitted.remove(victim)
            dropped("cache_evict", "serve_cache_evictions", now, victim)

    def decode_step() -> None:
        """One mixed prefill+decode forward over the active slots."""
        now = comm.clock
        for req in sched.evict_expired(now):
            if context is not None and comm.rank == 0:
                context.record_event("evict", t=now, rid=req.rid)
        shed_and_release(now)
        admitted = sched.admit(now)
        if cache is not None:
            for req in admitted:
                cache.reset([req.slot])
        relieve_cache_pressure(admitted)
        t0 = comm.clock
        if not sched.active:
            # Idle rank: dummy uncached forward with the same collective
            # sequence, so the SPMD program stays in lockstep.
            model(dummy)
            comm.advance(timer.dense_time(np.zeros(1), np.ones(1)))
            return
        if cfg.use_cache:
            feeds = [
                req.prompt if req in admitted else np.array([req.last_token])
                for req in sched.active
            ]
            valid = np.array([f.size for f in feeds], dtype=np.int64)
            rows = np.array([req.slot for req in sched.active], dtype=np.int64)
            toks = np.zeros((len(feeds), int(valid.max())), dtype=np.int64)
            for i, f in enumerate(feeds):
                toks[i, : f.size] = f
            ctx = cache.lengths[rows].copy()
            logits = model(toks, kv_cache=cache, rows=rows, valid=valid).data
            last = logits[np.arange(len(feeds)), valid - 1]
        else:
            # Sequential baseline: full uncached re-forward of the window.
            req = sched.active[0]
            window = np.concatenate([req.prompt, np.array(req.generated, dtype=np.int64)])
            window = window[-cfg.model.max_seq_len:]
            ctx = np.zeros(1, dtype=np.int64)
            valid = np.array([window.size], dtype=np.int64)
            last = model(window[None, :]).data[:, -1, :]
        comm.advance(timer.dense_time(ctx, valid))
        dt = comm.clock - t0
        if context is not None and comm.rank == 0:
            context.add_phase("prefill" if admitted else "decode", dt)
            context.metrics.counter("serve_iterations").inc()
            context.metrics.histogram("serve_iteration_seconds").observe(dt)
        if comm.rank == 0 and context.router is not None:
            context.router.record_layers(iteration, model.moe_layers())
        now = comm.clock
        for i, req in enumerate(list(sched.active)):
            if not cfg.greedy and req.rid not in samplers:
                samplers[req.rid] = np.random.default_rng(
                    derive_seed(cfg.seed, "sample", req.rid)
                )
            tok = _sample_token(last[i], cfg, samplers.get(req.rid))
            req.generated.append(tok)
            if req.t_first_token is None:
                req.t_first_token = now
            token_lat.append(dt)
            if len(req.generated) >= req.max_new_tokens:
                sched.finish(req, now)
                if context is not None and comm.rank == 0:
                    context.record_event("finish", t=now, rid=req.rid)

    with no_grad():
        while True:
            local_done = 0.0 if sched.has_work else 1.0
            if comm.allreduce(local_done, op=MIN) >= 1.0:
                break
            # Nothing in flight and the next arrival is in the future:
            # fast-forward this rank's clock to it instead of spinning.
            if not sched.active and sched.next_arrival > comm.clock:
                if np.isfinite(sched.next_arrival):
                    comm.advance(sched.next_arrival - comm.clock)
            decode_step()
            iteration += 1

    return {
        "rank": comm.rank,
        "records": sorted(
            (r.record() for r in sched.finished), key=lambda r: r["rid"]
        ),
        "token_lat": token_lat,
        # Out-of-band admission times (segment-local virtual seconds) so
        # span trees can place queue-wait without touching record().
        "admitted": {
            r.rid: r.t_admitted
            for r in sched.finished
            if r.t_admitted is not None
        },
    }


def run_serving(cfg: ServeConfig) -> ServeResult:
    """Serve the synthetic workload on ``ep_size`` simulated ranks.

    Requests are sharded round-robin over ranks; each rank decodes its
    share through the EP-sharded model (every rank participates in every
    alltoall). Returns aggregated counts, latency histograms (TTFT and
    per-decoded-token, in virtual seconds), per-request records, and the
    merged :class:`~repro.simmpi.RunContext`. The world is
    :func:`~repro.network.sunway_network` at ``supernode_size``, and
    compute is priced on :func:`~repro.hardware.sunway_machine`.
    """
    return _run_serving(cfg, requests=None, faults=None, pool=None)


def _run_serving(
    cfg: ServeConfig,
    requests: list[Request] | None,
    faults: Any | None,
    pool: dict[int, tuple] | None,
) -> ServeResult:
    """:func:`run_serving` on the models of ``pool`` (see :func:`_serve_model`).

    ``requests`` overrides the synthetic workload (the fleet router passes
    each replica its assigned share); ``faults`` is a
    :class:`~repro.simmpi.FaultPlan` / :class:`~repro.simmpi.FaultModel`
    forwarded to the SPMD engine — a crashed rank surfaces as a
    :class:`~repro.errors.ReproError` with partial clocks/context attached,
    which the fleet turns into a re-dispatch.
    """
    machine = sunway_machine(num_nodes=max(cfg.ep_size, 1))
    spmd = run_spmd(
        _serve_rank,
        cfg.ep_size,
        network=sunway_network(cfg.ep_size, supernode_size=cfg.supernode_size),
        timeout=cfg.timeout,
        trace=cfg.trace,
        observe=cfg.observe,
        faults=faults,
        args=(cfg, machine, requests, pool),
    )
    # Rank-major record order: it fixes the TTFT sample order (and so the
    # float sum behind the reported mean) before the by-rid sort below.
    records = [rec for ret in spmd.returns for rec in ret["records"]]
    counts = tally(records)
    del counts["shed_by_tier"]  # the fleet's breakdown; ``shed`` is its sum
    records.sort(key=lambda r: r["rid"])
    token_latency = LatencyStats("token")
    admitted_at: dict[int, float] = {}
    for ret in spmd.returns:
        token_latency.extend(ret["token_lat"])
        admitted_at.update(ret.get("admitted", {}))
    result = ServeResult(
        config=cfg,
        **counts,
        simulated_time=spmd.simulated_time,
        token_latency=token_latency,
        requests=records,
        clocks=list(spmd.clocks),
        context=spmd.context,
        admitted_at=admitted_at,
        meta={
            "ep_size": cfg.ep_size,
            "batching": cfg.batching,
            "overlap_chunks": cfg.overlap_chunks,
        },
    )
    context = spmd.context
    if context is not None and context.observing:
        # Driver-side aggregates: SLO distributions + outcome counters.
        registry = context.metrics
        registry.counter("serve_completed").inc(result.completed)
        registry.counter("serve_evicted").inc(result.evicted)
        registry.counter("serve_decode_tokens").inc(result.decode_tokens)
        registry.gauge("serve_throughput_tok_s").set(result.throughput)
        registry.histogram("serve_ttft_seconds").observe_many(result.ttft.samples)
        registry.histogram("serve_token_latency_seconds").observe_many(
            token_latency.samples
        )
    return result


def tally(records: list[dict]) -> dict[str, Any]:
    """Terminal-outcome counts over per-request records, keyed by result
    field — the one tally behind :class:`ServeResult` and the fleet's.

    Every record is ``done``, ``shed`` or evicted (whatever the reason);
    tokens decoded before an eviction still count. TTFT samples are
    collected in record order.
    """
    counts: dict[str, Any] = {
        "completed": 0, "evicted": 0, "shed": 0, "shed_by_tier": {},
        "decode_tokens": 0, "ttft": LatencyStats("ttft"),
    }
    for rec in records:
        counts["decode_tokens"] += rec["generated"]
        if rec["state"] == "done":
            counts["completed"] += 1
            if rec["ttft"] is not None:
                counts["ttft"].add(rec["ttft"])
        elif rec["state"] == "shed":
            counts["shed"] += 1
            by_tier = counts["shed_by_tier"]
            by_tier[rec["tier"]] = by_tier.get(rec["tier"], 0) + 1
        else:
            counts["evicted"] += 1
    return counts


def request_span_tree(
    spans: Any, rec: dict, first_token: float | None, admitted: float | None,
    history: Sequence[dict] = (), root_attrs: dict | None = None,
    where: dict | None = None,
) -> None:
    """One request's causal span tree — the only place a request becomes spans.

    ``rec`` is the terminal record (``rid/state/reason/tier/arrival/finish/
    generated``); ``first_token`` and ``admitted`` are when, in the attempt
    that produced it, the request decoded its first token and entered a
    batch slot (None: it never did). A single-engine result is a fleet of
    one, so what the fleet adds arrives as data: ``history`` holds failed
    (``crash``/``timeout``) and speculative (``hedge``) attempts as
    ``{kind, replica, t_start, t_end, ...}``, ``root_attrs`` extra root
    attributes, ``where`` the attributes naming the serving replica.

    Root ``request:{rid}`` = the request's whole life ``[arrival, finish]``;
    its on-path children partition it (:func:`~repro.obs.spans.span_coverage`):
    failed attempts (``retry``), then (i) admitted — optional ``queue
    [cursor, adm]``, the ``admission`` instant, ``prefill`` + ``decode`` of
    a completion or ``service [adm, finish]`` carrying the eviction reason;
    (ii) never admitted (shed, or evicted while waiting) — ``queue [cursor,
    finish]`` carrying the reason. Hedges ran *concurrently* with the
    primary, so they attach as off-path ``hedge`` children (winner/loser
    marked) excluded from the sum.
    """
    where = where or {}
    arrival, finish = rec["arrival"], rec["finish"]
    done = rec["state"] == "done"
    fails = sorted(
        (h for h in history if h["kind"] != "hedge"), key=lambda h: h["t_start"]
    )
    # A completion's root duration IS its recorded latency (failed attempts
    # are clamped inside it below); any other root ends with the last thing
    # that happened to the request.
    root_end = finish if done else max(
        [arrival, finish] + [h["t_end"] for h in fails]
    )
    root = spans.add(
        f"request:{rec['rid']}", arrival, root_end, kind="request",
        rid=rec["rid"], state=rec["state"], reason=rec["reason"],
        tier=rec["tier"], **(root_attrs or {}),
    )
    # On-path children must partition [arrival, root_end] without
    # overlap. Crash re-dispatch can move *backwards* in virtual time
    # (a survivor's segment may start before the failed segment's
    # recorded end), so every interval is clamped monotonically: no
    # child starts before the previous one ended or escapes the root.
    cursor = arrival
    for i, h in enumerate(fails):
        end = min(max(cursor, h["t_end"]), root_end)
        spans.add(
            "attempt", min(max(cursor, h["t_start"]), end), end, parent=root,
            kind="retry", why=h["kind"], replica=h["replica"], attempt=i,
        )
        cursor = end
    if admitted is None:
        if finish > cursor:
            spans.add("queue", cursor, finish, parent=root, kind="queue",
                      reason=rec["reason"])
    else:
        adm = min(max(cursor, admitted), root_end)
        if adm > cursor:
            spans.add("queue", cursor, adm, parent=root, kind="queue", **where)
        spans.instant("admission", adm, parent=root, kind="admission",
                      tier=rec["tier"], **where)
        if done and first_token is not None:
            first = min(max(adm, first_token), root_end)
            spans.add("prefill", adm, first, parent=root, kind="prefill",
                      **where)
            spans.add("decode", first, root_end, parent=root, kind="decode",
                      **where, tokens=rec["generated"])
        elif root_end > adm:
            spans.add("service", adm, root_end, parent=root, kind="decode",
                      **where, reason=rec["reason"])
    for h in history:
        if h["kind"] == "hedge":
            spans.add(
                "hedge", h["t_start"], h["t_end"], parent=root, kind="hedge",
                replica=h["replica"], winner=h["winner"], role=h["role"],
            )


def emit_request_spans(result: ServeResult) -> None:
    """One causal span tree per request on ``result.context``'s tracer.

    The single-engine caller of :func:`request_span_tree` (the fleet is
    the other): no failed attempts, no hedges, dispatch = arrival. No-op
    when the run was not observed. Emitted in rid order so span ids are
    deterministic.
    """
    context = result.context
    if context is None or not context.spans.enabled:
        return
    for rec in result.requests:
        first = None if rec["ttft"] is None else rec["arrival"] + rec["ttft"]
        request_span_tree(
            context.spans, rec, first, result.admitted_at.get(rec["rid"])
        )


def run_sequential_baseline(cfg: ServeConfig) -> ServeResult:
    """The uncached ``generate()`` baseline on the same world/workload.

    Identical model sharding, network, cost model, and request stream —
    only the serving policy changes: FIFO depth-1 per rank, no KV cache,
    full window re-forward per decoded token.
    """
    return run_serving(replace(cfg, use_cache=False, max_batch_size=1))
