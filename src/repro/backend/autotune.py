"""Kernel autotuning — workflow step 6 ("the mixed-precision backend then
configures the low-precision kernel by selecting the best device-optimized
configuration").

The tuner enumerates :class:`KernelRegistry` candidates, "measures" each via
the analytical efficiency model plus a small deterministic measurement jitter
(so tuning is a real argmax over noisy observations, not a table lookup), and
caches the winner per (arch, kind, precision, problem-bucket).
"""

from __future__ import annotations

import dataclasses
import math

from repro.backend.kernels import KernelRegistry, KernelTemplate, kernel_efficiency
from repro.common.dtypes import Precision
from repro.common.rng import derive_seed, new_rng
from repro.graph.ops import OpKind


@dataclasses.dataclass(frozen=True)
class TunedKernel:
    """Tuning result: the chosen template and its realized efficiency."""

    template: KernelTemplate
    efficiency: float
    candidates_tried: int


#: Std-dev of the multiplicative jitter on each simulated tuning
#: measurement; models run-to-run variance of real benchmarking.
TUNING_NOISE = 0.015


def _bucket(problem: tuple[int, int, int]) -> tuple[int, int, int]:
    """Round problem dims to powers of two: tuning reuse across near-equal
    shapes, exactly like shape-bucketed kernel caches in real autotuners."""
    return tuple(2 ** int(math.ceil(math.log2(max(d, 1)))) for d in problem)


class AutoTuner:
    """Per-device kernel selection with caching.

    Parameters
    ----------
    arch:
        Device architecture tag (``sm70``/``sm75``/``sm80``).
    seed:
        Jitter stream seed (derived per candidate, so results are stable).
    """

    def __init__(self, arch: str, seed: int = 0) -> None:
        self.arch = arch
        self.seed = seed
        self._cache: dict[tuple, TunedKernel] = {}

    def tune(
        self, kind: OpKind, precision: Precision, problem: tuple[int, int, int]
    ) -> TunedKernel:
        """Pick the best template for a GEMM-shaped problem (M, N, K)."""
        key = (kind, precision, _bucket(problem))
        if key in self._cache:
            return self._cache[key]

        candidates = KernelRegistry.candidates(self.arch, kind, precision)
        best: tuple[float, KernelTemplate] | None = None
        for template in candidates:
            true_eff = kernel_efficiency(self.arch, kind, precision, template, problem)
            rng = new_rng(derive_seed(self.seed, self.arch, kind.value,
                                      precision.value, template.label))
            measured = true_eff * (1.0 + TUNING_NOISE * rng.standard_normal())
            if best is None or measured > best[0]:
                best = (measured, template)
        assert best is not None, "registry always returns >= 1 candidate"
        result = TunedKernel(
            template=best[1],
            efficiency=float(
                kernel_efficiency(self.arch, kind, precision, best[1], problem)
            ),
            candidates_tried=len(candidates),
        )
        self._cache[key] = result
        return result

    def cache_size(self) -> int:
        return len(self._cache)
