"""The common result shape every planner strategy returns.

A :class:`PlanOutcome` bundles the three artifacts a what-if query wants —
the precision plan, the final simulation, and the operator-facing
:class:`QSyncReport` — regardless of whether the strategy was QSync's
allocator, a baseline indicator swap, or a prediction-only baseline.  One
shape means ``session.compare`` can tabulate all strategies without
per-baseline adapters.
"""

from __future__ import annotations

import dataclasses

from repro.core.allocator import AllocationReport
from repro.core.compression import CompressionReport
from repro.core.plan import PrecisionPlan
from repro.core.replayer import SimulationResult


@dataclasses.dataclass
class QSyncReport:
    """Everything an operator of the system wants to know post-allocation."""

    cluster: str
    model_summary: str
    allocation: AllocationReport
    final_simulation: SimulationResult

    def summary(self) -> str:
        sim = self.final_simulation
        return (
            f"[{self.cluster}] {self.model_summary}\n"
            f"  allocation: {self.allocation.summary()}\n"
            f"  predicted iteration: {sim.iteration_time * 1e3:.1f} ms "
            f"({sim.throughput:.3f} it/s)"
        )


@dataclasses.dataclass
class PlanOutcome:
    """What one planner strategy produced for one request."""

    #: Registry name of the strategy that produced this outcome.
    strategy: str
    #: Per-device-type precision assignments (empty = all FP32).
    plan: PrecisionPlan
    #: Simulation of the final configuration (its timeline renders on
    #: first read).
    simulation: SimulationResult
    #: Operator-facing report; allocator strategies carry real recovery
    #: diagnostics, passive strategies a zero-recovery snapshot.
    report: QSyncReport
    #: Gradient-compression diagnostics — only the compression-aware
    #: strategies (``qsync+qsgd``) populate this; ``None`` elsewhere.
    compression: CompressionReport | None = None

    def summary(self) -> str:
        return f"[{self.strategy}] {self.report.summary()}"
