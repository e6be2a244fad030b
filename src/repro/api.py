"""The supported public surface of :mod:`repro`, in one place.

``repro.api`` is the curated facade: everything a user script needs to
build models, launch measured training (plain / elastic) or serving runs,
and log the results — re-exported from its canonical home with an explicit
``__all__``. Importing this module is guaranteed warning-free (CI enforces
it).

Deep imports from the implementing subpackages keep working and stay the
right choice for internals (e.g. :class:`repro.parallel.ep.DistributedMoELayer`);
this module only promises the *stable* entry points::

    from repro.api import ServeConfig, run_serving, tiny_config
    result = run_serving(ServeConfig(model=tiny_config(), ep_size=4))
"""

from __future__ import annotations

# Models and configuration -------------------------------------------------
from repro.models import (
    BRAIN_SCALE_CONFIGS,
    ModelConfig,
    MoELanguageModel,
    build_model,
    generate,
    small_config,
    tiny_config,
)

# Distributed training: the layout picks the strategy; measured runner -----
from repro.layout import ParallelLayout
from repro.parallel import TrainingRunConfig, TrainingRunResult, run_distributed_training

# Elastic fault-tolerant training ------------------------------------------
from repro.resilience import (
    BackoffPolicy,
    ElasticRunConfig,
    ElasticRunResult,
    Supervisor,
    run_elastic_training,
)

# Serving: KV cache + continuous batching on EP ranks, replicated fleet -----
from repro.serve import (
    Autoscaler,
    AutoscalerConfig,
    ContinuousBatchScheduler,
    FleetConfig,
    FleetResult,
    KVCache,
    ReplicaRouter,
    Request,
    ServeConfig,
    ServeResult,
    run_fleet_serving,
    run_sequential_baseline,
    run_serving,
)

# Auto-parallelism planner: layout search + verification + reports ---------
from repro.plan import (
    PlanCandidate,
    PlannerConfig,
    PlanResult,
    build_plan_report,
    generate_plan_report,
    plan_layouts,
    search_plans,
    verify_plans,
)

# Simulated substrate -------------------------------------------------------
from repro.hardware import sunway_machine
from repro.network import CLUSTER_PRESETS, ClusterPreset, cluster_preset, sunway_network
from repro.simmpi import FaultModel, FaultPlan, RunContext, run_spmd

# Metrics -------------------------------------------------------------------
from repro.train.metrics import LatencyStats, MetricsLogger, read_jsonl

# Observability: registry, profilers, flight recorder, reports --------------
from repro.obs import (
    BurnRateWindow,
    CommProfile,
    FlightRecorder,
    MetricRegistry,
    RouterTelemetry,
    SlidingWindow,
    SLOMonitor,
    SLOObjective,
    Span,
    Tracer,
    build_report,
    collect_run_records,
    generate_run_report,
    profile_comm,
    slo_report,
    span_coverage,
    to_prometheus,
)

__all__ = [
    # models / configs
    "BRAIN_SCALE_CONFIGS",
    "ModelConfig",
    "MoELanguageModel",
    "build_model",
    "generate",
    "small_config",
    "tiny_config",
    # training
    "ParallelLayout",
    "TrainingRunConfig",
    "TrainingRunResult",
    "run_distributed_training",
    # elastic
    "BackoffPolicy",
    "ElasticRunConfig",
    "ElasticRunResult",
    "Supervisor",
    "run_elastic_training",
    # serving
    "Autoscaler",
    "AutoscalerConfig",
    "ContinuousBatchScheduler",
    "FleetConfig",
    "FleetResult",
    "KVCache",
    "ReplicaRouter",
    "Request",
    "ServeConfig",
    "ServeResult",
    "run_fleet_serving",
    "run_sequential_baseline",
    "run_serving",
    # planner
    "PlannerConfig",
    "PlanCandidate",
    "PlanResult",
    "plan_layouts",
    "search_plans",
    "verify_plans",
    "build_plan_report",
    "generate_plan_report",
    # substrate
    "CLUSTER_PRESETS",
    "ClusterPreset",
    "cluster_preset",
    "FaultModel",
    "FaultPlan",
    "RunContext",
    "run_spmd",
    "sunway_machine",
    "sunway_network",
    # metrics
    "LatencyStats",
    "MetricsLogger",
    "read_jsonl",
    # observability
    "BurnRateWindow",
    "CommProfile",
    "FlightRecorder",
    "MetricRegistry",
    "RouterTelemetry",
    "SlidingWindow",
    "SLOMonitor",
    "SLOObjective",
    "Span",
    "Tracer",
    "build_report",
    "collect_run_records",
    "generate_run_report",
    "profile_comm",
    "slo_report",
    "span_coverage",
    "to_prometheus",
]
