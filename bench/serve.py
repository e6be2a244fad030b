"""Workload ``serve_fleet`` and the serve / models-decode / obs probes.

Uses the tensor/models/moe/simmpi layers differently from training:
forward-only, fp32, KV-cached ragged decode with many tiny blocking
alltoalls, plus the fleet's scheduler, router, crash re-dispatch and
backoff. Arrivals are open-loop Poisson on the *virtual* clock at a fixed
rate, so TTFT is timed from each request's scheduled arrival; the host
side is a closed loop of one caller making fleet calls back to back.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.models import small_config
from repro.serve import (FleetConfig, ServeConfig, run_fleet_serving,
                         run_sequential_baseline, run_serving)
from repro.serve.engine import build_requests

from bench.calibrate import closed_loop, median_seconds
from bench.spans import Tracer, median_seconds_of
from bench.timing import median, percentile

#: The program derives weights, prompts, arrivals *and* the crash schedule
#: from the one ``ServeConfig.seed``, and a seeded crash schedule moves
#: every serve metric by tens of percent (128 requests, seeds 0-2: host
#: 9.8-18 s per call, goodput 166k-343k tok/s; seed 3 evicts requests). So
#: the scenario is fixed here and the benchmark seed jitters the arrival
#: rate by +-0.5 % instead.
SCENARIO_SEED = 0
REQUESTS = 64
QUICK_REQUESTS = 24
SAMPLE_REQUESTS = 8
#: Roughly 1.4x what one replica sustains.
ARRIVAL_RATE = 30_000.0
#: Virtual TTFT limit of ``serve.sim_slo_attainment`` (fixed once so that
#: the first baseline lands between 0.70 and 0.95).
TTFT_LIMIT_MS = 2.75
TRACE_CALLS = 2
#: A crashed replica's restart time is the largest clock any of its rank
#: threads had reached when the abort got to it (``fleet.py``: ``crash_t =
#: seg_t0 + max(partial_clocks)``), which depends on thread timing: on 3 of
#: 10 seeds the TTFT p90 of identical runs differed by 1e-3 virtual ms. So
#: the repetitions of this one workload are compared within a tolerance,
#: not bit for bit.
SIM_REL_TOL = 1e-3


def serve_config(spec, rate_scale: float = 1.0, **overrides) -> ServeConfig:
    jitter = 1.0 + 0.01 * (float(np.random.default_rng(spec.seed).random()) - 0.5)
    base = dict(
        model=small_config(vocab_size=256), ep_size=2,
        num_requests=QUICK_REQUESTS if spec.quick else REQUESTS,
        prompt_len=8, prompt_len_max=16, max_new_tokens=16, max_batch_size=4,
        seed=SCENARIO_SEED, arrival_rate=ARRIVAL_RATE * jitter * rate_scale,
    )
    base.update(overrides)
    return ServeConfig(**base)


def fleet_config(scfg: ServeConfig) -> FleetConfig:
    return FleetConfig(serve=scfg, replicas=2, mtbf=5.5e-3, retry_max=8,
                       backoff_base=2e-4, backoff_cap=2e-3)


def _lost(fleet, n: int) -> list[str]:
    """Requests that failed: no terminal state, no reason, or not completed."""
    records = fleet.requests
    if sorted(r["rid"] for r in records) != list(range(n)):
        return ["request ids are not exactly 0..n-1 (silent loss or duplication)"]
    return [
        f"request {r['rid']}: state {r['state']!r} reason {r['reason']!r}"
        for r in records if r["state"] != "done"
    ]


def _ttfts_ms(fleet) -> list[float]:
    return [r["ttft"] * 1e3 for r in fleet.requests
            if r["state"] == "done" and r["ttft"] is not None]


def _sample_matches_baseline(spec) -> list[str]:
    """A small fleet run must decode the sequential baseline's tokens."""
    sample = serve_config(spec, num_requests=SAMPLE_REQUESTS)
    fleet = run_fleet_serving(fleet_config(sample))
    baseline = run_sequential_baseline(sample)
    want = {r["rid"]: r["tokens"] for r in baseline.requests}
    failures = _lost(fleet, SAMPLE_REQUESTS)
    failures += [f"sample request {r['rid']}: tokens differ from the sequential baseline"
                 for r in fleet.requests
                 if r["state"] == "done" and r["tokens"] != want[r["rid"]]]
    return failures


def run(spec, tracer: Tracer) -> dict:
    with tracer.span("bench.setup"):
        scfg = serve_config(spec)
        fcfg = fleet_config(scfg)
        n = scfg.num_requests
        failures = _sample_matches_baseline(spec)  # doubles as the warm-up

    kept = []  # the first call's result only, so memory does not grow with calls

    def call(k: int) -> None:
        with tracer.span("serve.build_requests"):
            build_requests(scfg)
        with tracer.span("serve.run_fleet_serving"):
            fleet = run_fleet_serving(fcfg)
        failures.extend(_lost(fleet, n))
        if k == 0:
            kept.append(fleet)

    loop = closed_loop(call, spec.window, 1 if spec.quick else TRACE_CALLS, tracer)
    first = kept[0]
    ttfts = _ttfts_ms(first)
    return dict(
        **loop,
        work_per_op=first.decode_tokens,
        attempted=SAMPLE_REQUESTS + n * len(loop["op_s"]),
        failures=failures,
        sim_rel_tol=SIM_REL_TOL,
        sim={
            "sim_tokens_per_s": first.goodput,
            "serve.sim_ttft_p50_ms": percentile(ttfts, 50),
            "serve.sim_ttft_p90_ms": percentile(ttfts, 90),
            "serve.sim_token_latency_p90_ms": first.token_latency.percentile(90) * 1e3,
            # Evicted, shed and lost requests have no TTFT and so miss.
            "serve.sim_slo_attainment": sum(t <= TTFT_LIMIT_MS for t in ttfts) / n,
        },
        counts={
            "serve.crashes": first.crashes,
            "serve.retries": first.retries,
            "serve.hedges": first.hedges,
            "serve.evicted": first.evicted,
            "serve.shed": first.shed,
            "serve.useful_dispatch_share":
                first.completed / (n + first.retries + first.hedges),
        },
        span_metrics=(_span_metrics(tracer, median(loop["slowness"]))
                      if tracer.enabled else {}),
    )


def _span_metrics(tracer: Tracer, slow: float) -> dict:
    def seconds(name: str) -> float:
        return median_seconds_of(tracer.records, name) / slow

    return {
        "serve.build_requests_ms": seconds("serve.build_requests") * 1e3,
        "serve.fleet_run_s": seconds("serve.run_fleet_serving"),
    }


def probes(spec, fleet_call_s: float) -> dict:
    """serve / resilience probes, KV-cached model probes, observe overhead."""
    from repro.models import MoELanguageModel
    from repro.resilience import BackoffPolicy
    from repro.serve import ContinuousBatchScheduler, KVCache, ReplicaRouter, Request
    from repro.tensor import no_grad

    calls = 5 if spec.quick else 200
    scfg = serve_config(spec)
    cfg = scfg.model
    rng = np.random.default_rng(spec.seed)
    batch, prompt_len = scfg.max_batch_size, scfg.prompt_len_max

    model = MoELanguageModel(cfg, seed=SCENARIO_SEED)
    model.eval()
    cache = KVCache.for_model(model, batch_size=batch)
    prompts = rng.integers(0, cfg.vocab_size, size=(batch, prompt_len))
    next_tokens = prompts[:, -1:]
    rows = np.arange(batch)

    def prefill():
        cache.reset()
        with no_grad():
            model.forward(prompts, kv_cache=cache)

    def decode_step():
        # Rewind one token so every call decodes at the same context length.
        cache.lengths[:] = prompt_len
        with no_grad():
            model.forward(next_tokens, kv_cache=cache)

    heads, head_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
    k_new = rng.standard_normal((batch, heads, 1, head_dim)).astype(np.float32)
    valid = np.ones(batch, dtype=np.int64)

    def kv_append_commit():
        cache.lengths[:] = prompt_len
        for layer in range(cfg.n_layers):
            cache.layer(layer, rows).append(k_new, k_new, valid)
        cache.commit(rows, valid)

    def scheduler_admit():
        scheduler = ContinuousBatchScheduler(batch)
        for rid in range(4 * batch):
            scheduler.submit(Request(rid=rid, prompt=prompts[0], max_new_tokens=1))
        scheduler.admit(0.0)

    router = ReplicaRouter(2, BackoffPolicy(base=2e-4, cap=2e-3))

    few = max(calls // 8, 3)
    out = {
        "models.prefill_us": median_seconds(prefill, few) * 1e6,
        "models.decode_step_us": median_seconds(decode_step, few) * 1e6,
        "serve.kv_append_commit_us": median_seconds(kv_append_commit, calls) * 1e6,
        "serve.scheduler_admit_us": median_seconds(scheduler_admit, calls) * 1e6,
        "serve.router_pick_us": median_seconds(lambda: router.pick(0.0), calls) * 1e6,
        "serve.engine_run_s": median_seconds(lambda: run_serving(scfg), 1, 0),
    }
    half_rate = run_fleet_serving(fleet_config(serve_config(spec, rate_scale=0.5)))
    out["serve.sim_ttft_p90_ms_at_15k"] = percentile(_ttfts_ms(half_rate), 90)
    observed = median_seconds(
        lambda: run_fleet_serving(fleet_config(replace(scfg, observe=True))), 1, 0)
    out["obs.overhead_share.serve"] = (observed - fleet_call_s) / fleet_call_s
    return out
