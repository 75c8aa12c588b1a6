"""Discrete-event execution engine with pluggable schedules and costs.

The Replayer's Eq. (6) path is an analytic prefix-sum recurrence — fast,
but only able to express the one schedule it hard-codes.  This package
supplies the event-driven core underneath it:

* :mod:`repro.engine.core` — the scheduler: per-rank CUDA+COMM streams, an
  explicit event queue, and :func:`execute_global_dfg`, which dispatches
  between the analytic fast path (allocator hot loop) and the engine;
  neither emits a timeline — every result renders its own on demand;
* :mod:`repro.engine.policy` — the :class:`SchedulePolicy` protocol with
  :class:`DDPOverlapPolicy` (the Eq. (6) default, bit-identical to
  :func:`~repro.core.replayer.simulate_global_dfg` — the parity oracle) and
  :class:`BlockingSyncPolicy` (no-overlap vanilla sync SGD), plus
  :func:`eq6_fast_path`, the one rule for when the analytic path may serve;
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

from repro.engine.core import execute_global_dfg, run_engine
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
    "run_engine",
]
