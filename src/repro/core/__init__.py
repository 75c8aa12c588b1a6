"""The paper's contribution: Predictor (Indicator + Replayer) and Allocator.

* :mod:`repro.core.indicator` — the bi-directional mixed-precision
  sensitivity indicator ``Omega_o^{(b_o)}`` (Proposition 3, Eqs. 3–5).
* :mod:`repro.core.dfg` — local/global data-flow graphs: the execution
  timeline representation the Replayer simulates.
* :mod:`repro.core.cost_mapper` — Algorithm 1: neighborhood-aware cost
  mapping with cascading precision-dependent updates.
* :mod:`repro.core.replayer` — the Replayer: applies plans, rebuilds DFGs,
  simulates the global timeline (Eq. 6) and estimates memory.
* :mod:`repro.core.simulator` — the fine-grained ground-truth simulator
  that replaces the paper's hardware measurements (CONTRIBUTING.md
  "Substitutions").
* :mod:`repro.core.allocator` — quantization-minimized precision allocation:
  fastest-feasible initialization + max-heap recovery (Sec. V).

The end-to-end 7-step workflow (Fig. 3) that wires these together is
:class:`repro.session.PlanSession`.
"""

from repro.core.allocator import Allocator, AllocatorConfig
from repro.core.cost_mapper import (
    CostMapper,
    effective_precisions,
    grad_precision,
    output_precision,
)
from repro.core.dfg import DFGNode, GlobalDFG, LocalDFG, NodeKind
from repro.core.indicator import IndicatorProtocol, VarianceIndicator
from repro.core.plan import PrecisionPlan
from repro.core.replayer import Replayer, ReplayerStats, SimulationResult
from repro.core.simulator import GroundTruthSimulator

__all__ = [
    "VarianceIndicator",
    "IndicatorProtocol",
    "LocalDFG",
    "GlobalDFG",
    "DFGNode",
    "NodeKind",
    "CostMapper",
    "effective_precisions",
    "output_precision",
    "grad_precision",
    "Replayer",
    "ReplayerStats",
    "SimulationResult",
    "GroundTruthSimulator",
    "Allocator",
    "AllocatorConfig",
    "PrecisionPlan",
]
