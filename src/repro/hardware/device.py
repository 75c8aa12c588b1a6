"""Device model.

A :class:`DeviceSpec` is the analytical stand-in for a physical GPU: peak
throughput per precision, memory capacity/bandwidth, architecture tag (which
selects LP-PyTorch kernel templates) and the resource-sharing mode of Fig. 2.
Partial sharing (MPS) scales both memory and compute by the loaned fraction.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.common.dtypes import Precision
from repro.common.errors import UnsupportedPrecisionError


class SharingMode(enum.Enum):
    """Resource sharing plan for inference GPUs (Fig. 2)."""

    FULL = "full"  # whole GPU loaned to training
    PARTIAL = "partial"  # MPS isolation, fraction loaned


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Analytical model of one GPU.

    Attributes
    ----------
    name:
        Marketing name ("V100", "T4", ...).
    arch:
        CUDA architecture tag; selects kernel templates (sm70 = Volta,
        sm75 = Turing, sm80 = Ampere).
    peak_flops:
        Precision -> peak throughput in FLOP/s (TOPS for INT8).  Missing
        keys mean *no hardware support* (e.g. INT8 tensor ops on V100).
    memory_bytes:
        Device memory capacity.
    mem_bandwidth:
        HBM/GDDR bandwidth in bytes/s; the roofline's memory roof.
    kernel_launch_overhead:
        Fixed per-kernel host-side latency in seconds.
    is_training_gpu:
        True for training-cluster devices (kept at FP32 by QSync).
    sharing:
        :class:`SharingMode`; the loan fractions apply under PARTIAL.
    memory_fraction:
        Fraction of device memory available to the training job.  ClusterB
        caps this at 30 % on T4s while leaving compute whole (Sec. VII).
    compute_fraction:
        Fraction of SMs/threads loaned (MPS thread isolation, Fig. 2).
    """

    name: str
    arch: str
    peak_flops: dict[Precision, float]
    memory_bytes: int
    mem_bandwidth: float
    kernel_launch_overhead: float = 4e-6
    is_training_gpu: bool = False
    sharing: SharingMode = SharingMode.FULL
    memory_fraction: float = 1.0
    compute_fraction: float = 1.0

    def __post_init__(self) -> None:
        for frac, label in (
            (self.memory_fraction, "memory_fraction"),
            (self.compute_fraction, "compute_fraction"),
        ):
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {frac}")
        if self.sharing is SharingMode.FULL and (
            self.memory_fraction != 1.0 or self.compute_fraction != 1.0
        ):
            raise ValueError("FULL sharing implies loan fractions of 1.0")

    # ------------------------------------------------------------------
    # capability queries
    # ------------------------------------------------------------------
    def supports(self, precision: Precision) -> bool:
        return precision in self.peak_flops

    def supported_precisions(self) -> tuple[Precision, ...]:
        """Supported formats, lowest first: the first is "the lowest
        precision the inference GPUs support" (problem (1)'s T_min)."""
        return tuple(sorted(self.peak_flops, key=lambda p: p.bits))

    def flops_at(self, precision: Precision) -> float:
        """Peak throughput at a precision, scaled by the loaned compute."""
        if precision not in self.peak_flops:
            raise UnsupportedPrecisionError(
                f"{self.name} has no {precision.value} compute capability"
            )
        return self.peak_flops[precision] * self.compute_fraction

    @property
    def available_memory(self) -> int:
        """``M_i^max``: memory the training job may use."""
        return int(self.memory_bytes * self.memory_fraction)

    @property
    def effective_bandwidth(self) -> float:
        return self.mem_bandwidth * self.compute_fraction

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_sharing(
        self, memory_fraction: float, compute_fraction: float = 1.0
    ) -> "DeviceSpec":
        """A partially-loaned copy of this device (ClusterB construction)."""
        return dataclasses.replace(
            self,
            sharing=SharingMode.PARTIAL,
            memory_fraction=memory_fraction,
            compute_fraction=compute_fraction,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        share = (
            ""
            if self.sharing is SharingMode.FULL
            else f" (mem {self.memory_fraction:.0%})"
        )
        return f"{self.name}{share}"
