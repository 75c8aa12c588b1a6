"""Eq. (6) execution with pluggable schedules, perturbations and costs.

* :mod:`repro.engine.core` — :func:`execute_global_dfg`, the one Eq. (6)
  synchronous-collective recurrence: per-rank anchors from the schedule
  policy, inputs scaled by the perturbation, buckets priced once; it emits
  no timeline — every result renders its own on demand;
* :mod:`repro.engine.policy` — the :class:`SchedulePolicy` protocol with
  :class:`DDPOverlapPolicy` (the Eq. (6) default) and
  :class:`BlockingSyncPolicy` (no-overlap vanilla sync SGD), plus
  :func:`eq6_fast_path`, the rule for when the compiled kernel may serve;
* :mod:`repro.engine.perturbation` — deterministic, seed-derived straggler
  and bandwidth-drift injection;
* :mod:`repro.engine.segments` — epoch-segmented simulation across elastic
  membership changes (:func:`simulate_with_churn`), each segment
  incrementally re-planned on its surviving-rank cluster;
* :mod:`repro.engine.costs` — the :class:`NodeCostSource` protocol
  (:class:`CatalogCostSource`, :class:`MeasuredCostSource`,
  :class:`CastingBlindCostSource`) and :func:`assemble_local_dfg`, the one
  LocalDFG assembly walk shared by every non-incremental builder.
"""

from repro.engine.core import execute_global_dfg
from repro.engine.costs import (
    CastingBlindCostSource,
    CatalogCostSource,
    MeasuredCostSource,
    NodeCostSource,
    assemble_local_dfg,
    catalog_backward_segment,
    catalog_forward_segment,
    catalog_pure_cost,
    optimizer_pass_seconds,
)
from repro.engine.perturbation import Perturbation
from repro.engine.policy import (
    SCHEDULE_POLICIES,
    BlockingSyncPolicy,
    DDPOverlapPolicy,
    SchedulePolicy,
    eq6_fast_path,
    resolve_schedule_policy,
)
from repro.engine.segments import (
    EpochSegment,
    SegmentedRun,
    simulate_with_churn,
)

__all__ = [
    "BlockingSyncPolicy",
    "CastingBlindCostSource",
    "CatalogCostSource",
    "DDPOverlapPolicy",
    "EpochSegment",
    "MeasuredCostSource",
    "NodeCostSource",
    "Perturbation",
    "SCHEDULE_POLICIES",
    "SchedulePolicy",
    "SegmentedRun",
    "assemble_local_dfg",
    "simulate_with_churn",
    "catalog_backward_segment",
    "catalog_forward_segment",
    "catalog_pure_cost",
    "eq6_fast_path",
    "execute_global_dfg",
    "optimizer_pass_seconds",
    "resolve_schedule_policy",
]
