"""Elastic fault-tolerant training: fault models, supervision, resharding.

The production story this package reproduces (plain fixed-width
checkpoint-restart is the ``elastic=False`` configuration of the same
supervisor):

* :mod:`repro.simmpi.faults` injects failures — scripted
  (:class:`~repro.simmpi.FaultPlan`) or stochastic
  (:class:`~repro.simmpi.FaultModel`: MTBF crashes, dead nodes,
  stragglers);
* :class:`~repro.resilience.supervisor.Supervisor` classifies failures,
  backs off exponentially, relaunches from the latest verified snapshot,
  and — when one node keeps failing — performs an *elastic restart*:
  exclude the node, shrink to at most half the world (to a size that
  divides the original, so it can replay it), reshard through the
  layout-independent checkpoint, resume;
* :class:`~repro.resilience.elastic.ElasticStepDriver` makes the
  shrunken world reproduce the full world's loss trajectory exactly via
  fold-carry gradient accumulation.
"""

from repro.resilience.backoff import BackoffPolicy
from repro.resilience.elastic import (
    ElasticStepDriver,
    SegmentProgress,
    SegmentSpec,
    run_elastic_segment,
)
from repro.resilience.supervisor import (
    ElasticRunConfig,
    ElasticRunResult,
    Supervisor,
    classify_failure,
)

__all__ = [
    "BackoffPolicy",
    "ElasticRunConfig",
    "ElasticRunResult",
    "ElasticStepDriver",
    "SegmentProgress",
    "SegmentSpec",
    "Supervisor",
    "classify_failure",
    "run_elastic_segment",
]
