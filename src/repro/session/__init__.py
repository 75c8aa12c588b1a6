"""Session-oriented planning API (the redesigned front door).

The paper's Fig. 3 pipeline is one workflow; this package exposes it as a
declarative :class:`PlanRequest` resolved by a :class:`PlanSession` that
owns — and reuses across what-if queries — the expensive profiling
artifacts (operator catalogs, cast-cost fits, synthesized statistics).
Baselines are first-class :class:`Planner` strategies behind a registry,
all returning the common :class:`PlanOutcome`, so
``session.compare(request)`` produces a full baseline table in one call.

This is the only entry point: ``session.plan(request)`` returns a
:class:`PlanOutcome` (plan, simulation, :class:`QSyncReport`), and
``session.prepare(request)`` returns the :class:`PlanContext` (replayer,
backends, stats) for callers that drive the replayer directly.
"""

from repro.core.allocator import passive_allocation_report
from repro.engine import Perturbation
from repro.session.outcome import PlanOutcome, QSyncReport
from repro.session.planners import (
    Planner,
    available_strategies,
    get_planner,
    register_planner,
)
from repro.session.profiles import (
    ProfileStore,
    SessionStats,
    resolve_backends,
)
from repro.session.request import PlanRequest, available_model_names
from repro.session.session import PlanContext, PlanSession, ReplanOutcome

__all__ = [
    "Perturbation",
    "PlanContext",
    "PlanOutcome",
    "PlanRequest",
    "PlanSession",
    "Planner",
    "QSyncReport",
    "ReplanOutcome",
    "ProfileStore",
    "SessionStats",
    "available_model_names",
    "available_strategies",
    "get_planner",
    "passive_allocation_report",
    "register_planner",
    "resolve_backends",
]
