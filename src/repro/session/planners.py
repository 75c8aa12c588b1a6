"""Planner strategies — pluggable implementations of "produce a plan".

Every strategy consumes the same :class:`~repro.session.session.PlanContext`
(cluster, replayer, profiled stats, gamma) and returns the same
:class:`~repro.session.outcome.PlanOutcome`, which is what lets
``session.compare`` run the paper's whole baseline table through one code
path.  The registry is ordered and fixed at import time so comparison
tables iterate deterministically.

Strategies
----------
``qsync``
    The paper's allocator (fastest-feasible init + max-heap recovery) with
    the variance indicator — or the request's indicator override.
``uniform``
    Uniform Precision (UP): one lowest-fitting precision per inference
    device type (Sec. VII baselines).
``dpro``
    Dpro-style prediction [35]: no plan search; replays the all-FP32
    configuration without cast/cascade modelling (Table III's baseline),
    under the request's collective model, schedule and perturbation.
``hessian``
    The allocator driven by the HAWQ-v3-style Hessian indicator [8]
    (Gauss–Newton curvature proxy at graph scale).
``random``
    The allocator driven by the random indicator of Sec. VII-A1.
``qsync+qsgd``
    The joint precision + gradient-compression planner: the ``qsync``
    allocation followed by a budgeted greedy ascent over per-bucket QSGD
    compression levels (:mod:`repro.core.compression`), trading all-reduce
    time against the Indicator's gradient-sync variance term.  With the
    ladder pinned to ``(0,)`` it is bit-identical to ``qsync``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.baselines.dpro import DproReplayer
from repro.baselines.hessian import HessianIndicator, structural_eigenvalues
from repro.baselines.random_ind import RandomIndicator
from repro.baselines.uniform import uniform_precision_plan
from repro.common.dtypes import Precision
from repro.core.allocator import Allocator
from repro.core.compression import allocate_compression
from repro.core.indicator import VarianceIndicator
from repro.core.plan import PrecisionPlan
from repro.quant.qsgd import CompressionConfig, level_bits
from repro.session.outcome import (
    PlanOutcome,
    QSyncReport,
    passive_allocation_report,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import PlanContext


class Planner(Protocol):
    """The strategy interface: one context in, one outcome out."""

    name: str

    def plan(self, ctx: "PlanContext") -> PlanOutcome:
        ...


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Planner] = {}


def register_planner(planner: Planner) -> Planner:
    """Register a strategy instance under its ``name`` (insertion order is
    the canonical comparison order)."""
    if planner.name in _REGISTRY:
        raise ValueError(f"planner {planner.name!r} is already registered")
    _REGISTRY[planner.name] = planner
    return planner


def available_strategies() -> tuple[str, ...]:
    """Registered strategy names, in canonical (registration) order."""
    return tuple(_REGISTRY)


def get_planner(name: str) -> Planner:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown planner strategy {name!r}; available: "
            f"{', '.join(available_strategies())}"
        )
    return _REGISTRY[name]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _report(ctx: "PlanContext", allocation, simulation) -> QSyncReport:
    return QSyncReport(
        cluster=ctx.cluster.describe(),
        model_summary=ctx.template.summary(),
        allocation=allocation,
        final_simulation=simulation,
    )


def _make_indicator(ctx: "PlanContext", dag, choice):
    """Build one device type's indicator from ``None`` (the variance
    default) or a name that ``PlanRequest`` already checked against
    ``INDICATOR_NAMES``."""
    if choice in (None, "variance"):
        return VarianceIndicator(dag, ctx.stats, ctx.gamma)
    if choice == "hessian":
        return HessianIndicator(structural_eigenvalues(dag, ctx.stats), ctx.stats)
    return RandomIndicator(list(dag.adjustable_ops()), seed=ctx.request.seed)


# ---------------------------------------------------------------------------
# allocator-backed strategies (qsync / hessian / random)
# ---------------------------------------------------------------------------


class AllocatorPlanner:
    """The paper's allocation pipeline, parameterized by indicator.

    ``indicator_override=None`` (the ``qsync`` strategy) honors the
    request's indicator choice; the baseline strategies pin theirs.
    """

    def __init__(self, name: str, indicator_override: str | None = None) -> None:
        self.name = name
        self.indicator_override = indicator_override

    def check_request(self, request) -> None:
        """Fail loudly (and before profiling) instead of silently ignoring
        an indicator that this strategy pins."""
        if (
            self.indicator_override is not None
            and request.indicator not in (None, self.indicator_override)
        ):
            raise ValueError(
                f"strategy {self.name!r} pins indicator "
                f"{self.indicator_override!r} but the request asks for "
                f"{request.indicator!r}; use strategy='qsync' with an "
                f"indicator override instead"
            )

    def _build_indicators(self, ctx: "PlanContext") -> dict:
        """One indicator per participating device type (shared with the
        compression-aware subclass so both see identical instances)."""
        request = ctx.request
        replayer = ctx.replayer
        choice = self.indicator_override or request.indicator
        amp_mode = request.config is not None and request.config.amp_mode
        indicator_workers = (
            ctx.cluster.workers if amp_mode else ctx.cluster.inference_workers
        )
        indicators = {}
        for w in indicator_workers:
            if w.device.name not in indicators:
                dag = replayer.dags[w.rank]
                indicators[w.device.name] = _make_indicator(ctx, dag, choice)
        return indicators

    def plan(self, ctx: "PlanContext") -> PlanOutcome:
        request = ctx.request
        replayer = ctx.replayer
        indicators = self._build_indicators(ctx)
        allocator = Allocator(replayer, indicators, config=request.config)
        plan, alloc_report = allocator.allocate()
        final = replayer.simulate()
        return PlanOutcome(
            strategy=self.name,
            plan=plan,
            simulation=final,
            report=_report(ctx, alloc_report, final),
        )


class CompressedAllocatorPlanner(AllocatorPlanner):
    """``qsync`` allocation + per-bucket QSGD compression (the joint axis).

    Runs the exact precision allocation of :class:`AllocatorPlanner`, then
    climbs the compression ladder bucket-by-bucket under a variance budget
    of ``loss_budget`` times the precision plan's own indicator loss
    (:func:`repro.core.compression.allocate_compression`), installs the
    chosen levels on the replayer, and re-simulates.  When every bucket
    stays at level 0 — an empty budget, a ``(0,)`` ladder, or no move that
    saves time — the outcome's plan dict and simulation are bit-identical
    to the plain ``qsync`` strategy.
    """

    def plan(self, ctx: "PlanContext") -> PlanOutcome:
        request = ctx.request
        replayer = ctx.replayer
        indicators = self._build_indicators(ctx)
        allocator = Allocator(replayer, indicators, config=request.config)
        plan, alloc_report = allocator.allocate()

        cconf = request.compression or CompressionConfig()
        # Budget: the compression axis may add at most `loss_budget` of the
        # indicator loss the precision plan already pays.  An all-FP32 plan
        # (base loss 0) yields budget 0 — conservatively uncompressed.
        base_loss = 0.0
        for tname, ops in plan.assignments.items():
            indicator = indicators.get(tname)
            if indicator is None:
                continue
            for op, prec in ops.items():
                base_loss += indicator.omega(op, prec)
        budget = cconf.loss_budget * base_loss

        # The gradient-sync variance term always comes from the variance
        # indicator (Proposition 2's machinery): baseline indicators rank
        # ops but do not model gradient-quantization variance.
        ref_rank = min(replayer.dags)
        sync_indicator = VarianceIndicator(
            replayer.dags[ref_rank], dict(ctx.stats), ctx.gamma
        )
        buckets = replayer.local_dfg(ref_rank).buckets
        bucket_variances = [
            {
                lvl: sum(
                    sync_indicator.gradient_sync_variance(op, level_bits(lvl))
                    for op in bucket.ops
                )
                for lvl in cconf.levels
            }
            for bucket in buckets
        ]
        levels, creport = allocate_compression(
            replayer, bucket_variances, budget, levels=cconf.levels
        )
        replayer.set_bucket_compression(levels)
        plan.bucket_compression = replayer.bucket_compression

        final = replayer.simulate()
        return PlanOutcome(
            strategy=self.name,
            plan=plan,
            simulation=final,
            report=_report(ctx, alloc_report, final),
            compression=creport,
        )


# ---------------------------------------------------------------------------
# uniform precision (UP)
# ---------------------------------------------------------------------------


class UniformPlanner:
    """Uniform lowest-fitting precision per inference device type."""

    name = "uniform"

    def plan(self, ctx: "PlanContext") -> PlanOutcome:
        replayer = ctx.replayer
        assignments: dict[str, dict[str, Precision]] = {}
        for w in ctx.cluster.inference_workers:
            tname = w.device.name
            if tname not in assignments:
                assignments[tname] = uniform_precision_plan(
                    replayer.dags[w.rank],
                    w.device,
                    memory_model=replayer.memory_model,
                )
            replayer.apply_plan(w.rank, assignments[tname])
        sim = replayer.simulate()
        plan = PrecisionPlan(assignments=assignments)
        return PlanOutcome(
            strategy=self.name,
            plan=plan,
            simulation=sim,
            report=_report(ctx, passive_allocation_report(plan, sim), sim),
        )


# ---------------------------------------------------------------------------
# Dpro prediction baseline
# ---------------------------------------------------------------------------


class DproPlanner:
    """Prediction-only baseline: no plan search, cast-blind replay of the
    all-FP32 configuration (what Table III isolates)."""

    name = "dpro"

    def plan(self, ctx: "PlanContext") -> PlanOutcome:
        replayer = ctx.replayer
        catalogs = {rank: m.catalog for rank, m in replayer.mappers.items()}
        dpro = DproReplayer(
            ctx.cluster,
            replayer.dags,
            catalogs,
            collective_model=replayer.collective_model,
            schedule_policy=replayer.schedule_policy,
            perturbation=replayer.perturbation,
        )
        sim = dpro.simulate()
        plan = PrecisionPlan(assignments={})
        return PlanOutcome(
            strategy=self.name,
            plan=plan,
            simulation=sim,
            report=_report(ctx, passive_allocation_report(plan, sim), sim),
        )


register_planner(AllocatorPlanner("qsync"))
register_planner(UniformPlanner())
register_planner(DproPlanner())
register_planner(AllocatorPlanner("hessian", indicator_override="hessian"))
register_planner(AllocatorPlanner("random", indicator_override="random"))
register_planner(CompressedAllocatorPlanner("qsync+qsgd"))
