"""Serving subsystem: KV cache, continuous batching, EP decode engine.

Inference stresses exactly the machinery BaGuaLu contributes for training
— expert load balance and the alltoall data path — so the engine decodes
through :class:`~repro.parallel.ep.DistributedMoELayer` on simulated EP
ranks, with throughput/latency measured on the same virtual clock and
:class:`~repro.simmpi.RunContext` spine as training runs.

The engine module pulls in :mod:`repro.parallel`; it is imported lazily so
that :mod:`repro.models.generate` can depend on the cache without an
import cycle.
"""

from importlib import import_module

from repro.serve.kvcache import KVCache, KVLayerView
from repro.serve.scheduler import ContinuousBatchScheduler, Request

#: Names imported on first use, by submodule. The engine pulls in
#: :mod:`repro.parallel`; the fleet pulls in the engine (and resilience);
#: the router shares :class:`repro.resilience.BackoffPolicy` with the
#: supervisor, and importing that package pulls the elastic-training stack
#: (-> parallel -> amp); the autoscaler lives in the fleet's import
#: neighbourhood. Lazy keeps the package entry cheap and cycle-free.
_LAZY_EXPORTS = {
    "engine": (
        "DecodeTimer",
        "ServeConfig",
        "ServeResult",
        "build_requests",
        "emit_request_spans",
        "run_sequential_baseline",
        "run_serving",
    ),
    "fleet": ("FleetConfig", "FleetResult", "run_fleet_serving"),
    "router": ("ReplicaRouter", "ReplicaState"),
    "autoscaler": ("Autoscaler", "AutoscalerConfig"),
}

__all__ = [
    "KVCache",
    "KVLayerView",
    "ContinuousBatchScheduler",
    "Request",
    *(name for names in _LAZY_EXPORTS.values() for name in names),
]


def __getattr__(name):
    for module, names in _LAZY_EXPORTS.items():
        if name in names:
            return getattr(import_module(f"repro.serve.{module}"), name)
    raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
