"""Auto-parallelism planner: search, rank, verify, and report layouts.

One subsystem ties the stack's three halves together:

* the shared :class:`~repro.layout.ParallelLayout` and its strategy's
  checks decide what *launches* (the measured spine);
* the analytic :class:`~repro.perf.StepModel` decides what is *fast*;
* short simmpi runs decide what is *true*, feeding
  :func:`~repro.perf.calibrate_efficiency` back into the ranking.

Typical use::

    from repro.plan import plan_layouts, build_plan_report

    result = plan_layouts(tiny_config(), num_nodes=8, cluster="toy")
    print(build_plan_report(result))

or from the CLI: ``python -m repro.cli plan --config tiny --nodes 8``.
"""

from repro.plan.search import (
    PlanCandidate,
    PlannerConfig,
    PlanResult,
    RejectedLayout,
    VerifiedCandidate,
    enumerate_layouts,
    search_plans,
)
from repro.plan.verify import plan_layouts, verify_plans
from repro.plan.report import (
    build_plan_report,
    generate_plan_report,
    plan_records,
    write_plan_records,
)

__all__ = [
    "PlannerConfig",
    "PlanCandidate",
    "RejectedLayout",
    "VerifiedCandidate",
    "PlanResult",
    "enumerate_layouts",
    "search_plans",
    "verify_plans",
    "plan_layouts",
    "plan_records",
    "write_plan_records",
    "build_plan_report",
    "generate_plan_report",
]
