"""Profiling: cost catalogs, casting-cost models, memory estimation,
indicator statistics (workflow step 2).

* :mod:`repro.profiling.casting` — the family of *linear* casting-cost
  models (Sec. IV-B: "a collection of linear models to accurately predict
  the casting costs ... leveraging the tensor size as a parameter"), fit by
  least squares against backend measurements.
* :mod:`repro.profiling.profiler` — per-(operator, precision) forward and
  backward execution-cost catalogs from repeated backend measurements.
* :mod:`repro.profiling.memory` — the memory predictor ``M_i(.)``.
* :mod:`repro.profiling.stats` — indicator statistics collection: real
  instrumented mini-model runs, or analytically synthesized statistics for
  the full-size graphs.
"""

from repro.profiling.casting import CastCostCalculator, LinearCostModel
from repro.profiling.memory import MemoryEstimate, MemoryModel
from repro.profiling.profiler import OperatorCostCatalog, profile_operator_costs
from repro.profiling.stats import (
    OperatorStats,
    StatsRecorder,
    collect_model_stats,
    synthesize_stats,
)

__all__ = [
    "LinearCostModel",
    "CastCostCalculator",
    "OperatorCostCatalog",
    "profile_operator_costs",
    "MemoryModel",
    "MemoryEstimate",
    "OperatorStats",
    "StatsRecorder",
    "collect_model_stats",
    "synthesize_stats",
]
