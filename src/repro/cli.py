"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``train``       single-process training on the synthetic corpus
``distributed`` simulated multi-rank training with virtual timing; any
                strategy (dp/ep/moda/tp/zero/pipeline and composites)
                is a layout: ``--ep/--tp/--pp/--zero``
``resilient``   supervised fault-tolerant training: stochastic faults
                (``--mtbf``, ``--dead-node``, ``--straggler``), capped
                backoff, and elastic shrink-and-reshard restarts
``serve``       KV-cached continuous-batching inference over expert-
                parallel ranks (``--requests/--arrival-rate/--ep/--slo-ms``)
``report``      render a run's JSONL metrics file into a deterministic
                markdown run report (phases, comm, router, SLO)
``plan``        auto-parallelism planner: enumerate every launchable
                (dp, tp, pp, ep, zero) layout, rank analytically, verify
                the top-k with short simulated runs, calibrate, and emit
                a deterministic markdown plan report
``project``     brain-scale performance/memory projection
``configs``     print the model configuration table

Every command prints human-readable output and (optionally) logs metrics
to a JSONL/CSV file via ``--metrics``. ``distributed``, ``resilient`` and
``serve`` accept ``--observe``: the run carries a live metric registry +
router telemetry, and JSONL metrics gain typed observability records
(``record`` ∈ ``context``/``comm``/``router``/``metric``) that ``report``
renders.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Sequence

import numpy as np

from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import ConfigError
from repro.models import (
    BRAIN_SCALE_CONFIGS,
    build_model,
    generate,
    small_config,
    tiny_config,
)
from repro.obs import collect_run_records
from repro.train import Adam, Trainer, WarmupCosineLR
from repro.train.metrics import MetricsLogger
from repro.utils import format_bytes, format_count, format_flops, format_time

__all__ = ["main", "build_parser"]

_CONFIGS = {"tiny": tiny_config, "small": small_config}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BaGuaLu reproduction: MoE training on a simulated Sunway",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several subcommands declare identically live on parent parsers.
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--config", choices=sorted(_CONFIGS), default="tiny")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    #: The simulated machine and the instrumentation of one SPMD run.
    world = argparse.ArgumentParser(add_help=False)
    world.add_argument("--supernode", type=int, default=256)
    world.add_argument("--alltoall", choices=["flat", "hierarchical"],
                       default=None)
    world.add_argument("--trace", default=None, metavar="OUT_JSON",
                       help="write a Chrome-tracing JSON of the run")
    world.add_argument("--observe", action="store_true",
                       help="carry a live metric registry + router "
                            "telemetry; JSONL metrics gain typed "
                            "observability records for 'report'")

    p_train = sub.add_parser("train", parents=[model, seed],
                             help="single-process training run")
    p_train.add_argument("--steps", type=int, default=100)
    p_train.add_argument("--batch-size", type=int, default=8)
    p_train.add_argument("--seq-len", type=int, default=16)
    p_train.add_argument("--lr", type=float, default=3e-3)
    p_train.add_argument("--experts", type=int, default=None)
    p_train.add_argument("--gate", choices=["topk", "noisy-topk", "balanced", "random"],
                         default=None)
    p_train.add_argument("--fp16", action="store_true", help="mixed precision")
    p_train.add_argument("--metrics", default=None, help="JSONL/CSV metrics file")
    p_train.add_argument("--sample", type=int, default=0,
                         help="generate N tokens after training")

    p_dist = sub.add_parser(
        "distributed", parents=[model, seed, world],
        help="simulated distributed training (any strategy)",
    )
    p_dist.add_argument("--world", type=int, default=8)
    p_dist.add_argument("--ep", type=int, default=4)
    p_dist.add_argument("--tp", type=int, default=1,
                        help="tensor-parallel width (shards dense FFNs)")
    p_dist.add_argument("--pp", type=int, default=1,
                        help="pipeline stages (GPipe)")
    p_dist.add_argument("--zero", type=int, default=1,
                        help="ZeRO-1 optimizer-state shards (1 = off)")
    p_dist.add_argument("--microbatches", type=int, default=2,
                        help="microbatches per step (pipeline strategies)")
    p_dist.add_argument("--steps", type=int, default=5)
    p_dist.add_argument("--batch-size", type=int, default=4)
    p_dist.add_argument("--seq-len", type=int, default=16)
    p_dist.add_argument("--allreduce", choices=["ring", "tree", "hierarchical"],
                        default=None)
    p_dist.add_argument("--overlap-chunks", type=int, default=1,
                        help="comm/compute overlap width: >1 pipelines "
                             "expert dispatch in chunks and overlaps the "
                             "gradient allreduce with backward compute "
                             "(bitwise-identical losses)")
    p_dist.add_argument("--fp16", action="store_true")
    p_dist.add_argument("--metrics", default=None)

    p_res = sub.add_parser(
        "resilient", parents=[model],
        help="supervised fault-tolerant training (stochastic faults, "
             "backoff, elastic shrink-and-reshard)",
    )
    p_res.add_argument("--world", type=int, default=4)
    p_res.add_argument("--ep", type=int, default=2)
    p_res.add_argument("--steps", type=int, default=8)
    p_res.add_argument("--batch-size", type=int, default=4)
    p_res.add_argument("--seq-len", type=int, default=8)
    p_res.add_argument("--checkpoint-every", type=int, default=2)
    p_res.add_argument("--checkpoint-dir", default=None,
                       help="snapshot directory (default: a fresh temp dir)")
    p_res.add_argument("--seed", type=int, default=0,
                       help="seed for both training and the fault model")
    p_res.add_argument("--mtbf", type=float, default=None,
                       help="per-node mean time between failures "
                            "(virtual seconds; exponential draws)")
    p_res.add_argument("--dead-node", type=int, action="append", default=None,
                       metavar="NODE", help="permanently failed node "
                       "(repeatable)")
    p_res.add_argument("--straggler", action="append", default=None,
                       metavar="NODE:FACTOR",
                       help="slow node, e.g. '2:1.5' (repeatable)")
    p_res.add_argument("--elastic", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="shrink-and-reshard after repeated failures "
                            "of one node (--no-elastic: always relaunch "
                            "at full width)")
    p_res.add_argument("--shrink-after", type=int, default=2,
                       help="blamed failures on one node before shrinking")
    p_res.add_argument("--min-world", type=int, default=1)
    p_res.add_argument("--max-restarts", type=int, default=5)
    p_res.add_argument("--backoff-base", type=float, default=5.0,
                       help="first-retry backoff (virtual seconds)")
    p_res.add_argument("--metrics", default=None,
                       help="JSONL metrics file (losses + lifecycle events)")
    p_res.add_argument("--trace", default=None, metavar="OUT_JSON",
                       help="write a Chrome-tracing JSON of the session")
    p_res.add_argument("--observe", action="store_true",
                       help="carry a live metric registry + router "
                            "telemetry across launches")

    p_srv = sub.add_parser(
        "serve", parents=[model, seed, world],
        help="KV-cached continuous-batching inference on simulated EP ranks",
    )
    p_srv.add_argument("--ep", type=int, default=4,
                       help="expert-parallel world size")
    p_srv.add_argument("--requests", type=int, default=16)
    p_srv.add_argument("--arrival-rate", type=float, default=None,
                       help="requests per *virtual* second (Poisson); "
                            "default: all arrive at t=0")
    p_srv.add_argument("--slo-ms", type=float, default=None,
                       help="per-request completion deadline in virtual "
                            "milliseconds (expired requests are evicted)")
    p_srv.add_argument("--prompt-len", type=int, default=8)
    p_srv.add_argument("--prompt-len-max", type=int, default=None,
                       help="ragged prompts in [--prompt-len, this]")
    p_srv.add_argument("--max-new", type=int, default=16)
    p_srv.add_argument("--batch", type=int, default=8,
                       help="max concurrently active requests per rank")
    p_srv.add_argument("--expert-capacity", type=int, default=None,
                       help="absolute per-expert rows per step "
                            "(inference-side capacity; drops overflow)")
    p_srv.add_argument("--overlap-chunks", type=int, default=1,
                        help="chunked async expert dispatch width for "
                             "decode alltoalls (>1 overlaps dispatch with "
                             "expert compute)")
    p_srv.add_argument("--replicas", type=int, default=1,
                       help="serving replicas behind the retry router "
                            "(>1 or --mtbf engages the fleet path)")
    p_srv.add_argument("--mtbf", type=float, default=None,
                       help="mean virtual seconds between crashes per "
                            "replica (fault injection)")
    p_srv.add_argument("--retry-max", type=int, default=3,
                       help="re-dispatches per request before explicit "
                            "eviction")
    p_srv.add_argument("--hedge-after-ms", type=float, default=None,
                       help="speculatively re-dispatch a request to a "
                            "second replica past this service latency")
    p_srv.add_argument("--request-timeout-ms", type=float, default=None,
                       help="force a retry when a request's service "
                            "latency exceeds this")
    p_srv.add_argument("--backoff-base", type=float, default=0.5,
                       help="first-retry backoff for a crashed replica "
                            "(virtual seconds, capped exponential)")
    p_srv.add_argument("--tiers", type=int, default=1,
                       help="SLO classes for the workload (tier 0 is "
                            "premium)")
    p_srv.add_argument("--shed-tier", type=int, default=None,
                       help="shed arrivals of this tier and above when "
                            "the backlog exceeds --queue-depth")
    p_srv.add_argument("--queue-depth", type=int, default=None,
                       help="backlog cap that triggers shedding "
                            "(default: 2x --batch when --shed-tier set)")
    p_srv.add_argument("--kv-budget", type=int, default=None,
                       help="total committed KV tokens per rank; over "
                            "budget, the lowest-priority slot is evicted")
    p_srv.add_argument("--sample", action="store_true",
                       help="sample instead of greedy decoding")
    p_srv.add_argument("--baseline", action="store_true",
                       help="also run the sequential uncached generate() "
                            "baseline and report the speedup")
    p_srv.add_argument("--metrics", default=None,
                       help="JSONL/CSV metrics file (summary + per-request "
                            "records on JSONL)")
    p_srv.add_argument("--arrival-ramp", default=None, metavar="T:RATE,...",
                       help="piecewise-constant Poisson arrival schedule, "
                            "e.g. '0:2,10:8,20:32' (first segment must "
                            "start at 0; excludes --arrival-rate)")
    p_srv.add_argument("--autoscale", action="store_true",
                       help="grow/shrink the replica set from windowed "
                            "TTFT p95 + backlog signals (engages the "
                            "fleet path; --replicas is the floor)")
    p_srv.add_argument("--max-replicas", type=int, default=4,
                       help="autoscaler ceiling on live replicas")
    p_srv.add_argument("--ttft-slo-ms", type=float, default=None,
                       help="premium-tier TTFT objective in virtual ms; "
                            "runs a burn-rate SLO monitor (and sets the "
                            "autoscaler target, default 500ms)")
    p_srv.add_argument("--span-dump", default=None, metavar="OUT_JSON",
                       help="write the per-request span trees as "
                            "deterministic JSON (implies --observe)")

    p_rep = sub.add_parser(
        "report",
        help="render a JSONL metrics file into a markdown run report",
    )
    p_rep.add_argument("metrics", help="JSONL metrics file from a run "
                                       "(--metrics out.jsonl)")
    p_rep.add_argument("--out", default=None, metavar="OUT_MD",
                       help="write the report here (default: stdout)")
    p_rep.add_argument("--title", default=None,
                       help="report title (default: derived from the file)")

    from repro.network.presets import CLUSTER_PRESETS

    p_plan = sub.add_parser(
        "plan", parents=[model],
        help="search parallel layouts: enumerate, rank analytically, "
             "verify the top-k with short simulated runs",
    )
    p_plan.add_argument("--nodes", type=int, default=8)
    p_plan.add_argument("--cluster", choices=sorted(CLUSTER_PRESETS),
                        default="toy",
                        help="cluster preset (network + machine models)")
    p_plan.add_argument("--batch-size", type=int, default=4,
                        help="sequences per rank per step")
    p_plan.add_argument("--seq-len", type=int, default=16)
    p_plan.add_argument("--microbatches", type=int, default=2,
                        help="microbatches per step for pipeline candidates")
    p_plan.add_argument("--experts", type=int, default=None,
                        help="override the model's expert count")
    p_plan.add_argument("--layers", type=int, default=None,
                        help="override the model's layer count")
    p_plan.add_argument("--moe-every", type=int, default=None,
                        help="override MoE block spacing (2 = alternate "
                             "dense/MoE, giving TP something to shard)")
    p_plan.add_argument("--max-tp", type=int, default=8)
    p_plan.add_argument("--max-zero", type=int, default=8)
    p_plan.add_argument("--overlap-chunks", type=int, default=1,
                        help="price candidates with this comm/compute "
                             "overlap width (pipeline layouts stay at 1)")
    p_plan.add_argument("--top-k", type=int, default=2,
                        help="candidates to verify with measured runs")
    p_plan.add_argument("--steps", type=int, default=2,
                        help="training steps per verification run")
    p_plan.add_argument("--verify", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="--no-verify skips the measured runs (ranking "
                             "only)")
    p_plan.add_argument("--out", default=None, metavar="OUT_MD",
                        help="write the markdown plan report here")
    p_plan.add_argument("--metrics", default=None,
                        help="write typed planner records (JSONL)")

    p_proj = sub.add_parser("project", help="brain-scale projection")
    p_proj.add_argument("--model", choices=sorted(BRAIN_SCALE_CONFIGS), default="14.5T")
    p_proj.add_argument("--nodes", type=int, default=96_000)
    p_proj.add_argument("--micro-batch", type=int, default=8)
    p_proj.add_argument("--zero", type=int, default=64)
    p_proj.add_argument("--recompute", action="store_true")
    p_proj.add_argument("--imbalance", type=float, default=1.05)

    sub.add_parser("configs", help="print the model configuration table")
    return parser


def _model_for(args: argparse.Namespace, ep: int = 1, **overrides):
    """The ``--config`` model with the ``overrides`` that were given (not
    None) applied and its experts made divisible by ``ep``."""
    cfg = _CONFIGS[args.config]()
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = cfg.scaled(**overrides)
    if cfg.num_experts % ep != 0:
        cfg = cfg.scaled(num_experts=ep * max(cfg.num_experts // ep, 1))
    return cfg


def _write_outputs(args: argparse.Namespace, context, records=(),
                   jsonl_records=(), network=None, span_dump=None) -> None:
    """The output epilogue of every run command: ``--metrics``, ``--trace``
    and the ``--span-dump`` path when given.

    ``records`` go to any metrics sink; ``jsonl_records`` (their keys differ
    from the CSV header the first record fixes) and, on an observing run,
    the typed observability records go to JSONL sinks only.
    """
    if args.metrics:
        with MetricsLogger(args.metrics) as logger:
            for record in records:
                logger.log(record)
            if logger.path.suffix == ".jsonl":
                for record in jsonl_records:
                    logger.log(record)
                if context.observing:
                    logger.log_events(collect_run_records(context, network=network))
        print(f"metrics            : {args.metrics}")
    if args.trace:
        print(f"chrome trace       : {context.write_chrome_trace(args.trace)}")
    if span_dump:
        print(f"span dump          : {context.spans.write_json(span_dump)}")


def _print_outcome(result, shed_by_tier=None) -> None:
    """The outcome lines the engine and the fleet path of ``serve`` share."""
    print(f"completed / evicted: {result.completed} / {result.evicted}")
    if result.shed:
        tiers = "" if shed_by_tier is None else " (" + ", ".join(
            f"tier{t}={n}" for t, n in sorted(shed_by_tier.items())) + ")"
        print(f"shed (admission)   : {result.shed}{tiers}")
    print(f"decode tokens      : {result.decode_tokens}")
    print(f"makespan           : {format_time(result.simulated_time)}")


def _print_percentiles(label: str, stats) -> None:
    """``label : p50 .. p95 ..`` of a latency distribution (if any samples)."""
    if stats.count:
        print(f"{label:<19}: p50 {format_time(stats.percentile(50))}"
              f"  p95 {format_time(stats.percentile(95))}")


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _model_for(args, num_experts=args.experts, gate=args.gate)
    model = build_model(cfg, seed=args.seed)
    scaler = None
    if args.fp16:
        from repro.amp import DynamicLossScaler, cast_model

        cast_model(model, "fp16")
        scaler = DynamicLossScaler(init_scale=2.0**12, growth_interval=50)
    print(f"training {cfg.name}: {format_count(model.num_parameters())} params, "
          f"{cfg.num_experts} experts" + (" [fp16]" if args.fp16 else ""))

    corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, predictability=0.9, seed=args.seed)
    loader = ShardedLoader(corpus, args.batch_size, args.seq_len)
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=args.lr),
        schedule=WarmupCosineLR(args.lr, max(args.steps // 10, 1), args.steps),
        scaler=scaler,
        grad_clip=1.0,
    )
    with MetricsLogger(args.metrics) if args.metrics else nullcontext() as logger:
        history = trainer.fit(
            loader,
            args.steps,
            log_every=max(args.steps // 5, 1),
            on_step=(lambda r: logger.log(
                {"step": r.step, "loss": r.loss, "lr": r.lr, "skipped": r.skipped}
            )) if logger else None,
        )
    print(f"final loss: {history[-1].loss:.4f} (from {history[0].loss:.4f})")

    if args.sample > 0:
        prompt = np.array([[corpus.sample(1)[0]]])
        out = generate(model, prompt, args.sample)
        print("greedy sample:", out[0].tolist())
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from repro.network import sunway_network
    from repro.parallel import TrainingRunConfig, run_distributed_training

    cfg = _model_for(args, ep=args.ep)
    if args.tp > 1 and cfg.moe_every == 1:
        # TP shards dense FFN blocks; give the model some to shard.
        cfg = cfg.scaled(n_layers=max(cfg.n_layers, 4), moe_every=2)
    run_cfg = TrainingRunConfig(
        model=cfg,
        world_size=args.world,
        ep_size=args.ep,
        num_steps=args.steps,
        batch_size=args.batch_size,
        seq_len=args.seq_len,
        alltoall_algorithm=args.alltoall,
        allreduce_algorithm=args.allreduce,
        mixed_precision=args.fp16,
        seed=args.seed,
        tp_size=args.tp,
        pp_size=args.pp,
        zero_shards=args.zero,
        num_microbatches=args.microbatches,
        overlap_chunks=args.overlap_chunks,
        trace=args.trace is not None,
        observe=args.observe,
    )
    net = sunway_network(args.world, supernode_size=args.supernode)
    print(f"launching {args.world} simulated ranks via strategy "
          f"'{run_cfg.resolve_strategy().name}' "
          f"({run_cfg.layout.describe()}, supernode={args.supernode})")
    result = run_distributed_training(run_cfg, network=net)
    for step, loss in enumerate(result.losses):
        print(f"  step {step:3d}  global loss {loss:.4f}")
    _write_outputs(
        args, result.context,
        records=({"step": step, "loss": loss}
                 for step, loss in enumerate(result.losses)),
        # The context snapshot's keys differ from the per-step records
        # that fix a CSV header, so it goes to JSONL sinks only.
        jsonl_records=[{**result.context.metrics_record(),
                        "strategy": result.meta["strategy"]}],
        network=net,
    )
    print(f"simulated step time: {format_time(result.step_time)}")
    print(f"load imbalance     : {result.load_imbalance:.2f}")
    for phase, seconds in result.phase_seconds.items():
        print(f"  phase {phase:<10}: {format_time(seconds)}")
    print(f"traffic            : {format_bytes(result.traffic['total_bytes'])}")
    return 0


def _cmd_resilient(args: argparse.Namespace) -> int:
    import tempfile

    from repro.parallel import TrainingRunConfig
    from repro.resilience import ElasticRunConfig, Supervisor
    from repro.simmpi import FaultModel

    cfg = _model_for(args, ep=args.ep)

    stragglers = {}
    for spec in args.straggler or []:
        try:
            node, factor = spec.split(":")
            stragglers[int(node)] = float(factor)
        except ValueError:
            raise ConfigError(
                f"--straggler wants NODE:FACTOR (e.g. 2:1.5), got {spec!r}"
            ) from None
    faults = None
    if args.mtbf is not None or args.dead_node or stragglers:
        faults = FaultModel(
            seed=args.seed,
            mtbf=args.mtbf,
            dead_nodes=tuple(args.dead_node or ()),
            stragglers=stragglers or None,
        )

    ckpt_dir = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-ckpt-")
    run_cfg = ElasticRunConfig(
        run=TrainingRunConfig(
            model=cfg,
            world_size=args.world,
            ep_size=args.ep,
            num_steps=args.steps,
            batch_size=args.batch_size,
            seq_len=args.seq_len,
            seed=args.seed,
            trace=args.trace is not None,
            observe=args.observe,
        ),
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=ckpt_dir,
        max_restarts=args.max_restarts,
        backoff_base=args.backoff_base,
        elastic=args.elastic,
        shrink_after=args.shrink_after,
        min_world_size=args.min_world,
    )
    fault_desc = "healthy machine" if faults is None else (
        f"mtbf={args.mtbf} dead={tuple(args.dead_node or ())} "
        f"stragglers={stragglers or {}}"
    )
    print(f"supervising {args.world} ranks (ep={args.ep}) for {args.steps} "
          f"steps [{fault_desc}]")
    print(f"checkpoints: {ckpt_dir}")
    result = Supervisor(run_cfg, faults=faults).run()

    for event in result.context.events:
        extra = {k: v for k, v in event.items() if k not in ("kind", "t")}
        detail = " ".join(f"{k}={v}" for k, v in extra.items())
        print(f"  [t={event['t']:.3g}s] {event['kind']:<16} {detail}")
    steps = list(enumerate(result.losses, start=result.first_step))
    for step, loss in steps:
        print(f"  step {step:3d}  global loss {loss:.4f}")
    print(f"restarts / shrinks : {result.restarts} / {result.shrinks}")
    print(f"world history      : {' -> '.join(map(str, result.world_history))}")
    print(f"lost step-work     : {result.lost_steps} steps")
    print(f"useful / lost / backoff time: {format_time(result.useful_time)} / "
          f"{format_time(result.lost_time)} / {format_time(result.backoff_time)}")
    print(f"goodput            : {result.goodput:.1%}")
    print(f"availability       : {result.availability:.1%}")
    _write_outputs(
        args, result.context,
        records=({"record": "step", "step": step, "loss": loss}
                 for step, loss in steps),
        jsonl_records=[
            *({**event, "record": "event"} for event in result.context.events),
            {"record": "summary", **result.metrics_record()},
        ],
    )
    return 0


def _parse_arrival_ramp(spec: str | None):
    """``'0:2,10:8'`` -> ``((0.0, 2.0), (10.0, 8.0))`` for ServeConfig."""
    if not spec:
        return None
    try:
        segments = tuple(
            (float(part.split(":")[0]), float(part.split(":")[1]))
            for part in spec.split(",")
        )
    except (ValueError, IndexError):
        raise ConfigError(
            f"--arrival-ramp expects 'T:RATE,T:RATE,...', got {spec!r}"
        ) from None
    return segments


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig

    serve_cfg = ServeConfig(
        model=_model_for(args, ep=args.ep),
        ep_size=args.ep,
        num_requests=args.requests,
        arrival_rate=args.arrival_rate,
        arrival_ramp=_parse_arrival_ramp(args.arrival_ramp),
        prompt_len=args.prompt_len,
        prompt_len_max=args.prompt_len_max,
        max_new_tokens=args.max_new,
        max_batch_size=args.batch,
        slo_ms=args.slo_ms,
        greedy=not args.sample,
        seed=args.seed,
        expert_capacity=args.expert_capacity,
        alltoall_algorithm=args.alltoall,
        overlap_chunks=args.overlap_chunks,
        supernode_size=args.supernode,
        num_tiers=args.tiers,
        shed_tier=args.shed_tier,
        queue_depth=args.queue_depth,
        kv_token_budget=args.kv_budget,
        trace=args.trace is not None,
        observe=args.observe or args.span_dump is not None,
    )
    if args.replicas > 1 or args.mtbf is not None or args.autoscale:
        result, baseline = _serve_fleet(args, serve_cfg), []
    else:
        result, baseline = _serve_engine(args, serve_cfg)
    _write_outputs(
        args, result.context,
        records=[{"record": "summary", **result.metrics_record()}, *baseline],
        jsonl_records=({"record": "request", **rec} for rec in result.requests),
        span_dump=args.span_dump,
    )
    return 0


def _serve_engine(args: argparse.Namespace, serve_cfg):
    """The single-engine path of ``serve``; returns the result and the
    ``--baseline`` record (if asked for) as a list."""
    from repro.serve import emit_request_spans, run_sequential_baseline, run_serving

    if args.arrival_ramp:
        arrival = f"ramp {args.arrival_ramp}"
    elif args.arrival_rate is not None:
        arrival = f"Poisson {args.arrival_rate:g} req/s"
    else:
        arrival = "all at t=0"
    print(f"serving {args.requests} requests on {args.ep} EP ranks "
          f"(batch={args.batch}, {arrival}"
          + (f", slo={args.slo_ms:g}ms" if args.slo_ms is not None else "")
          + ")")
    result = run_serving(serve_cfg)
    if args.span_dump:
        emit_request_spans(result)

    _print_outcome(result)
    print(f"throughput         : {result.throughput:,.0f} tok/s (virtual)")
    _print_percentiles("ttft", result.ttft)
    _print_percentiles("token latency", result.token_latency)
    for phase, seconds in result.context.phase_seconds.items():
        print(f"  phase {phase:<10}: {format_time(seconds)}")

    if not args.baseline:
        return result, []
    baseline = run_sequential_baseline(serve_cfg)
    speedup = (result.throughput / baseline.throughput
               if baseline.throughput > 0 else float("inf"))
    print(f"sequential baseline: {baseline.throughput:,.0f} tok/s in "
          f"{format_time(baseline.simulated_time)} "
          f"-> speedup {speedup:.2f}x")
    return result, [{"record": "baseline", **baseline.metrics_record()}]


def _serve_fleet(args: argparse.Namespace, serve_cfg):
    """The replicated path of ``serve``: router + retries + fault injection."""
    from repro.obs import SLOObjective
    from repro.serve import AutoscalerConfig, FleetConfig, run_fleet_serving

    autoscale = None
    slos = ()
    ttft_slo_ms = args.ttft_slo_ms
    if args.autoscale:
        ttft_slo_ms = 500.0 if ttft_slo_ms is None else ttft_slo_ms
        autoscale = AutoscalerConfig(
            min_replicas=args.replicas,
            max_replicas=args.max_replicas,
            ttft_slo_s=ttft_slo_ms / 1e3,
        )
    if ttft_slo_ms is not None:
        slos = (SLOObjective(name="premium-ttft", threshold_s=ttft_slo_ms / 1e3, tier=0),)
    fleet_cfg = FleetConfig(
        serve=serve_cfg,
        replicas=args.replicas,
        mtbf=args.mtbf,
        retry_max=args.retry_max,
        hedge_after_ms=args.hedge_after_ms,
        request_timeout_ms=args.request_timeout_ms,
        backoff_base=args.backoff_base,
        autoscale=autoscale,
        slos=slos,
    )
    faults = ("healthy" if args.mtbf is None
              else f"mtbf {args.mtbf:g}s per replica")
    scale = ("" if autoscale is None
             else f", autoscale {args.replicas}..{args.max_replicas}")
    print(f"fleet: {args.requests} requests over {args.replicas} replicas "
          f"x {args.ep} EP ranks ({faults}, retry_max={args.retry_max}"
          f"{scale})")
    result = run_fleet_serving(fleet_cfg)

    _print_outcome(result, result.shed_by_tier)
    print(f"goodput            : {result.goodput:,.0f} tok/s (virtual)")
    print(f"crashes / retries  : {result.crashes} / {result.retries}")
    if result.hedges:
        print(f"hedges (wins)      : {result.hedges} ({result.hedge_wins})")
    if result.timeouts:
        print(f"timeouts           : {result.timeouts}")
    if result.config.autoscale is not None:
        print(f"autoscale          : +{result.scale_ups} / "
              f"-{result.scale_downs} "
              f"(final {result.replicas_final} replicas)")
    for mon in result.slo:
        s = mon.summary()
        print(f"slo {s['slo']:<14}: bad {s['bad']}/{s['good'] + s['bad']} "
              f"alerts fired {s['alerts_fired']} "
              f"resolved {s['alerts_resolved']}")
    _print_percentiles("ttft", result.ttft)
    for stat in result.replica_stats:
        print(f"  replica {stat['replica']}: completed {stat['completed']:>4}  "
              f"crashes {stat['crashes']:>2}  "
              f"busy {format_time(stat['busy_time'])}")
    return result


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import generate_run_report

    report = generate_run_report(args.metrics, out_path=args.out, title=args.title)
    if args.out:
        print(f"report written to {args.out} "
              f"({len(report.splitlines())} lines)")
    else:
        print(report, end="")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.plan import (
        PlannerConfig,
        generate_plan_report,
        search_plans,
        verify_plans,
        write_plan_records,
    )

    cfg = _model_for(args, num_experts=args.experts, n_layers=args.layers,
                     moe_every=args.moe_every)

    planner = PlannerConfig(
        model=cfg,
        num_nodes=args.nodes,
        cluster=args.cluster,
        micro_batch=args.batch_size,
        seq_len=args.seq_len,
        num_microbatches=args.microbatches,
        max_tp=args.max_tp,
        max_zero=args.max_zero,
        overlap_chunks=args.overlap_chunks,
    )
    print(f"planning {cfg.name} on {args.nodes} '{args.cluster}' nodes "
          f"(batch={args.batch_size}, seq={args.seq_len}"
          + (f", overlap_chunks={args.overlap_chunks}"
             if args.overlap_chunks > 1 else "")
          + ")")
    result = search_plans(planner)
    print(f"  {len(result.candidates)} launchable layouts, "
          f"{len(result.rejected)} rejected")
    if args.verify and result.candidates:
        result = verify_plans(result, top_k=args.top_k, num_steps=args.steps)

    for rank, cand in enumerate(result.candidates[:max(args.top_k, 5)], start=1):
        print(f"  #{rank}: {cand.layout.describe()} [{cand.strategy}] "
              f"-> {format_time(cand.predicted_step_time)}/step predicted")
    for v in result.verified:
        cal = ("" if v.calibrated_relative_error is None
               else f", {v.calibrated_relative_error:.1%} calibrated")
        print(f"  verified {v.candidate.layout.describe()}: measured "
              f"{format_time(v.measured_step_time)}/step "
              f"(error {v.relative_error:.1%}{cal})")
    if result.calibration is not None:
        print(f"  fitted compute efficiency: "
              f"{result.calibration.efficiency:.3f}")
    med = result.median_relative_error
    if med is not None:
        print(f"  median model-vs-measured error: {med:.1%}")
    if result.candidates:
        print(f"  best layout: {result.best.layout.describe()} "
              f"[{result.best.strategy}]")

    if args.out:
        report = generate_plan_report(
            result, out_path=args.out,
            title=f"Plan report: {cfg.name} on {args.nodes} "
                  f"{args.cluster} nodes",
        )
        print(f"  plan report: {args.out} ({len(report.splitlines())} lines)")
    if args.metrics:
        write_plan_records(result, args.metrics)
        print(f"  planner records: {args.metrics}")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from repro.hardware import SUNWAY_NODE, sunway_machine
    from repro.network import sunway_network
    from repro.perf import ParallelPlan, StepModel, node_memory

    cfg = BRAIN_SCALE_CONFIGS[args.model]()
    instances = cfg.num_moe_layers * cfg.num_experts
    ep = args.nodes
    while ep > instances or args.nodes % ep != 0:
        ep //= 2
    plan = ParallelPlan(
        num_nodes=args.nodes, ep_size=ep, micro_batch=args.micro_batch,
        seq_len=2048, zero_shards=args.zero, recompute=args.recompute,
        load_imbalance=args.imbalance,
    )
    machine = sunway_machine(args.nodes)
    sm = StepModel(cfg, machine, sunway_network(args.nodes))
    mem = node_memory(cfg, plan)
    bd = sm.step_breakdown(plan)
    print(f"{cfg.name} on {args.nodes:,} nodes "
          f"({format_count(machine.total_cores)} cores)")
    print(f"  total params : {format_count(cfg.total_params)}")
    print(f"  node memory  : {format_bytes(mem.total)} "
          f"(budget {format_bytes(SUNWAY_NODE.memory_bytes)})")
    print(f"  step time    : {format_time(bd.total)} "
          f"(compute {bd.compute / bd.total:.0%})")
    print(f"  sustained    : {format_flops(sm.achieved_flops(plan))}")
    print(f"  tokens/s     : {format_count(sm.tokens_per_second(plan))}")
    return 0


def _cmd_configs(_args: argparse.Namespace) -> int:
    print(f"{'model':<16} {'layers':>6} {'d_model':>8} {'experts':>8} "
          f"{'total':>10} {'active/tok':>11}")
    for factory in list(_CONFIGS.values()) + [
        BRAIN_SCALE_CONFIGS[k] for k in sorted(BRAIN_SCALE_CONFIGS)
    ]:
        cfg = factory()
        print(f"{cfg.name:<16} {cfg.n_layers:>6} {cfg.d_model:>8} "
              f"{cfg.num_experts:>8} {format_count(cfg.total_params):>10} "
              f"{format_count(cfg.active_params_per_token):>11}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code (subcommand ``x`` is
    handled by ``_cmd_x``)."""
    args = build_parser().parse_args(argv)
    return globals()[f"_cmd_{args.command}"](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
