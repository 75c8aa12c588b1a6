"""Shared substrate: precision dtypes, physical units, RNG discipline, errors.

Everything else in :mod:`repro` builds on these primitives, so they are kept
dependency-free (numpy only) and heavily unit-tested.
"""

from repro.common.dtypes import (
    PRECISION_ORDER,
    Precision,
    higher_precision,
    parse_precision,
)
from repro.common.errors import (
    GraphConsistencyError,
    InfeasiblePlanError,
    KernelConfigError,
    MemoryBudgetError,
    ReproError,
    UnsupportedPrecisionError,
)
from repro.common.rng import new_rng
from repro.common.stable_hash import (
    canonical_encode,
    stable_digest,
    stable_hash,
    stable_mod,
    try_stable_digest,
)
from repro.common.units import (
    GB,
    GBPS,
    KB,
    MB,
    MS,
    TFLOPS,
    US,
)

__all__ = [
    "Precision",
    "PRECISION_ORDER",
    "higher_precision",
    "parse_precision",
    "ReproError",
    "UnsupportedPrecisionError",
    "MemoryBudgetError",
    "GraphConsistencyError",
    "KernelConfigError",
    "InfeasiblePlanError",
    "new_rng",
    "canonical_encode",
    "stable_digest",
    "stable_hash",
    "stable_mod",
    "try_stable_digest",
    "KB",
    "MB",
    "GB",
    "MS",
    "US",
    "TFLOPS",
    "GBPS",
]
