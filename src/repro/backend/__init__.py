"""LP-PyTorch — the low-precision backend (Sec. VI), simulated.

The real LP-PyTorch bridges PyTorch operators to templated CUTLASS/CuDNN
kernels.  Here the same architecture is reproduced at the model level:

* :mod:`repro.backend.kernels` — kernel templates (ThreadblockShape /
  WarpShape / InstructionShape) with an analytical efficiency function per
  GPU architecture ("Multi-Level Abstraction").
* :mod:`repro.backend.autotune` — selects the best template per
  (device, op kind, precision, problem shape) — workflow step 6.
* :mod:`repro.backend.minmax` — the two-step row-wise MinMax collection
  kernel vs the vanilla multi-pass reduction ("Minmax Optimization").
* :mod:`repro.backend.fusion` — dequantization folded into the kernel
  epilogue ("Dequantization Fusion").
* :mod:`repro.backend.wrapper` — the "Front-end Security Wrapper": tensor-
  core shape checks with SIMT fallback.
* :mod:`repro.backend.lp_backend` — the facade the profiler measures
  against.
"""

from repro.backend.autotune import AutoTuner, TunedKernel
from repro.backend.fusion import dequant_cost
from repro.backend.kernels import KernelRegistry, KernelTemplate, kernel_efficiency
from repro.backend.lp_backend import LPBackend
from repro.backend.minmax import MinMaxKernel
from repro.backend.wrapper import SecurityWrapper, check_tensor_core_compat

__all__ = [
    "KernelTemplate",
    "KernelRegistry",
    "kernel_efficiency",
    "AutoTuner",
    "TunedKernel",
    "MinMaxKernel",
    "dequant_cost",
    "check_tensor_core_compat",
    "SecurityWrapper",
    "LPBackend",
]
