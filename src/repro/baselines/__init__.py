"""Baselines the paper compares against (Sec. VII).

* :mod:`repro.baselines.uniform` — Uniform Precision (UP): one precision for
  every adjustable op on inference GPUs, lowered until memory fits.
* :mod:`repro.baselines.dbs` — Dynamic Batch Sizing [4]: heterogeneous local
  batch sizes balancing per-device step time.
* :mod:`repro.baselines.hessian` — the HAWQ-v3-style Hessian indicator [8]:
  block-wise top eigenvalue / parameter count x quantization error.
* :mod:`repro.baselines.random_ind` — the random indicator of Sec. VII-A1.
* :mod:`repro.baselines.dpro` — Dpro-style replay [35]: latency prediction
  without casting costs or precision-dependency modelling (Table III).
"""

from repro.baselines.dbs import dbs_batch_sizes
from repro.baselines.dpro import DproReplayer
from repro.baselines.hessian import HessianIndicator, hessian_top_eigenvalues
from repro.baselines.random_ind import RandomIndicator
from repro.baselines.uniform import uniform_precision_plan

__all__ = [
    "uniform_precision_plan",
    "dbs_batch_sizes",
    "HessianIndicator",
    "hessian_top_eigenvalues",
    "RandomIndicator",
    "DproReplayer",
]
