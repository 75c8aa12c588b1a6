"""Casting-cost models — the ``CP`` calculator of Algorithm 1.

Every cast family (fp<->fp copy, fp->int quantization incl. MinMax and scale
computation, int->fp dequantization at either granularity) is "essentially a
kernel-level element-wise operation, so it can still be shaped as the linear
cost with respect to the tensor size" (Sec. IV-B).  We therefore fit one
:class:`LinearCostModel` per (src, dst) pair from backend measurements and
predict with it — the same two-phase profile-then-predict pipeline as the
paper's profiler.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.backend.lp_backend import LPBackend
from repro.common.dtypes import Precision
from repro.profiling.profiler import sample_mean


@dataclasses.dataclass
class LinearCostModel:
    """``t = intercept + slope * elems`` fitted by least squares."""

    slope: float
    intercept: float
    r2: float

    @classmethod
    def fit(cls, sizes: np.ndarray, times: np.ndarray) -> "LinearCostModel":
        """Least-squares fit; refuses degenerate inputs."""
        sizes = np.asarray(sizes, dtype=np.float64)
        times = np.asarray(times, dtype=np.float64)
        if sizes.size < 2:
            raise ValueError("need at least 2 samples to fit a line")
        design = np.stack([sizes, np.ones_like(sizes)], axis=1)
        coef, *_ = np.linalg.lstsq(design, times, rcond=None)
        pred = design @ coef
        ss_res = float(np.sum((times - pred) ** 2))
        ss_tot = float(np.sum((times - times.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return cls(slope=float(coef[0]), intercept=float(coef[1]), r2=r2)

    def predict(self, elems: float) -> float:
        """Predicted seconds for a tensor of ``elems`` elements (>= 0)."""
        return max(self.intercept + self.slope * float(elems), 0.0)


#: Cast pairs that occur in mixed-precision graphs.
CAST_PAIRS: tuple[tuple[Precision, Precision], ...] = (
    (Precision.FP32, Precision.FP16),
    (Precision.FP16, Precision.FP32),
    (Precision.FP32, Precision.INT8),
    (Precision.FP16, Precision.INT8),
    (Precision.INT8, Precision.FP32),
    (Precision.INT8, Precision.FP16),
)


class CastCostCalculator:
    """Per-device family of fitted casting-cost models.

    Parameters
    ----------
    backend:
        The device's LP backend, measured during :meth:`fit`.
    sizes:
        Element counts swept while profiling (default spans the activation
        sizes of the catalog models).
    repeats:
        Measurements averaged per size (profiling noise reduction).  Each
        (pair, size) cast latency is evaluated once; only the per-repeat
        jitter multiplies it (:meth:`LPBackend.cast_samples`).
    """

    def __init__(
        self,
        backend: LPBackend,
        sizes: tuple[int, ...] = (2_048, 65_536, 262_144, 1_048_576, 8_388_608),
        repeats: int = 3,
    ) -> None:
        self.backend = backend
        self.sizes = sizes
        self.repeats = repeats
        self._models: dict[tuple[Precision, Precision], LinearCostModel] = {}
        self._fit()

    def _fit(self) -> None:
        reps = range(self.repeats)
        for src, dst in CAST_PAIRS:
            times = [
                sample_mean(self.backend.cast_samples(src, dst, size, reps))
                for size in self.sizes
            ]
            self._models[(src, dst)] = LinearCostModel.fit(
                np.asarray(self.sizes, dtype=np.float64), np.asarray(times)
            )

    @classmethod
    def from_fitted(
        cls,
        backend: LPBackend,
        sizes: tuple[int, ...],
        repeats: int,
        models: dict[tuple[Precision, Precision], LinearCostModel],
    ) -> "CastCostCalculator":
        """Rebind already-fitted models to a live backend *without*
        re-measuring — the persistent-store warm-start path.  Predictions
        read only the fitted coefficients, so a rebuilt calculator is
        bit-identical to the one that was serialized.
        """
        calc = cls.__new__(cls)
        calc.backend = backend
        calc.sizes = tuple(int(s) for s in sizes)
        calc.repeats = int(repeats)
        calc._models = dict(models)
        return calc

    # ------------------------------------------------------------------
    def predict(self, src: Precision, dst: Precision, elems: int) -> float:
        """Predicted cast latency; zero for same-precision or empty casts.

        This is the ``CP.predict(b_src, b_dst, shape)`` call of Algorithm 1.
        """
        if src is dst or elems <= 0:
            return 0.0
        return self._models[(src, dst)].predict(elems)

    def worst_fit_r2(self) -> float:
        """Smallest R² across the fitted family (fit-quality diagnostics)."""
        return min(m.r2 for m in self._models.values())
