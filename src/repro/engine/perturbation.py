"""Deterministic straggler/drift injection: inputs to Eq. (6).

ACE-Sync-style cloud-edge scenarios need ranks that run *slower than
profiled* (thermal throttling, co-located inference bursts, an edge node on
a bad day) and links whose bandwidth drifts between iterations.  A
:class:`Perturbation` describes both, seed-derived and
``PYTHONHASHSEED``-stable (every factor comes from
:func:`repro.common.rng.derive_seed` — never from builtin ``hash`` or
shared mutable RNG state), so a perturbed simulation is exactly
reproducible across processes.

Semantics:

* **compute**: each rank's CUDA-stream node durations (and its optimizer
  pass) are scaled by ``1 + compute_jitter * u(rank)`` with
  ``u ~ U[0, 1)`` drawn from the rank-derived seed, times any explicit
  ``stragglers`` multiplier for that rank;
* **communication**: each bucket's collective duration is scaled by
  ``1 + bandwidth_drift * u(bucket)`` from the bucket-derived seed.

Perturbations transform *inputs* (a scaled copy of each
:class:`~repro.core.dfg.LocalDFG`; a per-bucket multiplier on the priced
collective), so they compose with every schedule policy and collective
model unchanged.  The original DFGs are never mutated.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from repro.common.rng import derive_seed, new_rng

if TYPE_CHECKING:  # pragma: no cover - runtime import would cycle via core
    from repro.core.dfg import LocalDFG


def _uniform(seed: int, *keys) -> float:
    """One U[0, 1) draw from a derived seed (stable across processes)."""
    return float(new_rng(derive_seed(seed, *keys)).uniform())


@dataclasses.dataclass(frozen=True)
class Perturbation:
    """Seed-derived per-rank slowdowns and per-bucket bandwidth drift.

    Parameters
    ----------
    seed:
        Base seed of every derived factor.
    compute_jitter:
        Maximum fractional compute slowdown per rank (``0.1`` = each rank
        runs up to 10 % slower, factor drawn uniformly per rank).
    bandwidth_drift:
        Maximum fractional collective slowdown per bucket.
    stragglers:
        Explicit ``rank -> multiplier`` compute slowdowns (``{3: 2.0}`` =
        rank 3 computes at half speed; ranks are non-negative integers,
        never bools), on top of the jitter.  Accepts a
        mapping or ``((rank, factor), ...)`` pairs; stored sorted so equal
        perturbations compare (and fingerprint) equal.
    """

    seed: int = 0
    compute_jitter: float = 0.0
    bandwidth_drift: float = 0.0
    stragglers: Union[Mapping[int, float], tuple] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.compute_jitter) or self.compute_jitter < 0:
            raise ValueError(
                f"compute_jitter must be finite and >= 0, got "
                f"{self.compute_jitter}"
            )
        if not math.isfinite(self.bandwidth_drift) or self.bandwidth_drift < 0:
            raise ValueError(
                f"bandwidth_drift must be finite and >= 0, got "
                f"{self.bandwidth_drift}"
            )
        pairs = (
            tuple(sorted(self.stragglers.items()))
            if isinstance(self.stragglers, Mapping)
            else tuple(sorted(tuple(p) for p in self.stragglers))
        )
        if len({rank for rank, _ in pairs}) != len(pairs):
            raise ValueError(
                f"stragglers list a rank more than once: "
                f"{[rank for rank, _ in pairs]}"
            )
        for rank, factor in pairs:
            if isinstance(rank, bool) or not isinstance(rank, numbers.Integral):
                raise ValueError(
                    f"straggler rank must be an integer, got {rank!r}"
                )
            if rank < 0:
                raise ValueError(
                    f"straggler rank must be >= 0, got {rank}"
                )
            if not math.isfinite(factor) or factor <= 0:
                raise ValueError(
                    f"straggler factor for rank {rank} must be finite and "
                    f"> 0, got {factor}"
                )
        object.__setattr__(self, "stragglers", pairs)

    # ------------------------------------------------------------------
    @property
    def is_noop(self) -> bool:
        return (
            self.compute_jitter == 0.0
            and self.bandwidth_drift == 0.0
            and all(factor == 1.0 for _, factor in self.stragglers)
        )

    def straggler_factor(self, rank: int) -> float:
        for r, factor in self.stragglers:
            if r == rank:
                return float(factor)
        return 1.0

    def compute_scale(self, rank: int) -> float:
        """Total CUDA-stream duration multiplier for one rank."""
        scale = self.straggler_factor(rank)
        if self.compute_jitter:
            scale *= 1.0 + self.compute_jitter * _uniform(
                self.seed, "compute", rank
            )
        return scale

    def with_degradations(
        self, factors: Iterable[tuple[int, float]]
    ) -> "Perturbation":
        """A copy with extra per-rank slowdowns composed in.

        ``degrade`` cluster events (:mod:`repro.hardware.events`) land here:
        each ``(rank, factor)`` multiplies onto any existing straggler
        factor for that rank, so mid-run degradations stack with a
        scenario's baseline stragglers instead of replacing them.
        """
        merged = {rank: factor for rank, factor in self.stragglers}
        for rank, factor in factors:
            merged[rank] = merged.get(rank, 1.0) * factor
        return dataclasses.replace(self, stragglers=merged)

    def comm_scale(self, bucket: int) -> float:
        """Collective duration multiplier for one bucket index."""
        if not self.bandwidth_drift:
            return 1.0
        return 1.0 + self.bandwidth_drift * _uniform(self.seed, "comm", bucket)

    # ------------------------------------------------------------------
    def perturb_local(self, ldfg: "LocalDFG") -> "LocalDFG":
        """A copy of ``ldfg`` with this perturbation's compute scale applied
        to every forward/backward node and the optimizer (structure, bucket
        membership and readiness anchors are untouched)."""
        from repro.core.dfg import LocalDFG

        scale = self.compute_scale(ldfg.rank)
        if scale == 1.0:
            return ldfg
        out = LocalDFG(ldfg.device_name, ldfg.rank)
        for node in ldfg.forward:
            out.add_forward(
                dataclasses.replace(node, duration=node.duration * scale)
            )
        for node in ldfg.backward:
            out.add_backward(
                dataclasses.replace(node, duration=node.duration * scale)
            )
        if ldfg.buckets:
            out.set_buckets(list(ldfg.buckets), dict(ldfg.bucket_ready_after))
        if ldfg.optimizer is not None:
            out.set_optimizer(ldfg.optimizer.duration * scale)
        return out

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.compute_jitter:
            parts.append(f"jitter<={self.compute_jitter:.0%}")
        if self.bandwidth_drift:
            parts.append(f"drift<={self.bandwidth_drift:.0%}")
        for rank, factor in self.stragglers:
            parts.append(f"rank{rank}x{factor:g}")
        return f"Perturbation({', '.join(parts)})"
