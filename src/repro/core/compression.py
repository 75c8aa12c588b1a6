"""Per-bucket gradient-compression allocation (the joint planning axis).

The precision Allocator decides *what arrives in the gradient buckets*
(layer precisions); this module decides *how those buckets travel*: a
QSGD compression level per DDP bucket, chosen so the total all-reduce
time drops as far as possible while the **added** gradient-sync variance
stays within a fraction of the precision plan's own indicator loss.

The search mirrors the recovery loop's shape — a greedy budgeted ascent
with deterministic tie-breaking — but climbs the compression ladder
instead of the precision ladder:

1. start every bucket at level 0 (uncompressed — the parity rung);
2. each step considers deepening each bucket by one rung of the ladder,
   pricing the time saved through the replayer's collective model
   (:meth:`~repro.parallel.comm_model.CollectiveModel.allreduce_time_bits`)
   and the variance added through the Indicator's gradient-sync term;
3. accept the move with the best time-saved-per-variance ratio that still
   fits the budget; stop when no feasible move saves time.

Everything here is pure Python over floats the collective models produce —
no numpy, no randomness — so the compression axis plans identically in
the Eq. (6) recurrence and the compiled kernel.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.core.replayer import Replayer
from repro.quant.qsgd import COMPRESSION_LEVELS, level_bits


@dataclasses.dataclass
class CompressionReport:
    """Diagnostics of one compression-allocation run."""

    #: Chosen per-bucket levels (index = bucket index).
    levels: tuple[int, ...]
    #: Sum of per-bucket all-reduce times at level 0 (uncompressed).
    base_allreduce_seconds: float
    #: Sum of per-bucket all-reduce times at the chosen levels.
    compressed_allreduce_seconds: float
    #: Added gradient-sync variance of the chosen levels.
    added_variance: float
    #: The budget the ascent ran under (``loss_budget * base indicator loss``).
    variance_budget: float
    #: Candidate moves evaluated / accepted by the greedy ascent.
    steps_attempted: int = 0
    steps_accepted: int = 0

    @property
    def allreduce_speedup(self) -> float:
        """Uncompressed-over-compressed all-reduce time ratio (>= 1)."""
        if self.compressed_allreduce_seconds <= 0.0:
            return 1.0 if self.base_allreduce_seconds <= 0.0 else float("inf")
        return self.base_allreduce_seconds / self.compressed_allreduce_seconds

    def summary(self) -> str:
        counts: dict[int, int] = {}
        for lvl in self.levels:
            counts[lvl] = counts.get(lvl, 0) + 1
        dist = ", ".join(f"L{k}x{v}" for k, v in sorted(counts.items()))
        return (
            f"allreduce {self.base_allreduce_seconds * 1e3:.3f} -> "
            f"{self.compressed_allreduce_seconds * 1e3:.3f} ms "
            f"({self.allreduce_speedup:.2f}x), variance "
            f"{self.added_variance:.3e} / {self.variance_budget:.3e}; "
            f"levels {dist or 'none'}"
        )


def allocate_compression(
    replayer: Replayer,
    bucket_variances: Sequence[Mapping[int, float]],
    budget: float,
    levels: tuple[int, ...] = COMPRESSION_LEVELS,
) -> tuple[tuple[int, ...], CompressionReport]:
    """Greedy budgeted ascent over the per-bucket compression ladder.

    Parameters
    ----------
    replayer:
        Supplies the cluster, the collective model, and the bucket sizes
        (read off a reference rank's LocalDFG — all ranks share the bucket
        structure in synchronous data parallelism).  **Not mutated**: the
        caller installs the returned levels via
        :meth:`~repro.core.replayer.Replayer.set_bucket_compression`.
    bucket_variances:
        Per bucket, a mapping ``level -> total added gradient variance``
        at that level (level 0 must map to 0.0) — precomputed by the
        planner from the Indicator's gradient-sync term.
    budget:
        Cap on the summed added variance (absolute, same units as omega).
    levels:
        The ladder to climb, ascending, starting at 0.

    Returns ``(per-bucket levels, report)``.  Deterministic: candidate
    scoring is pure float arithmetic with index-ordered tie-breaking, and
    an all-level-0 outcome (empty budget, nothing saves time) leaves the
    replayer's behaviour bit-identical to the uncompressed planner.
    """
    if levels[0] != 0:
        raise ValueError(f"compression ladder must start at 0, got {levels!r}")
    ref_rank = min(replayer.dags)
    buckets = replayer.local_dfg(ref_rank).buckets
    if len(bucket_variances) != len(buckets):
        raise ValueError(
            f"bucket_variances has {len(bucket_variances)} entries for "
            f"{len(buckets)} buckets"
        )
    cluster = replayer.cluster
    model = replayer.collective_model

    # Price each (bucket, rung) once: the ascent revisits pairs.
    times: list[list[float]] = []
    for bucket in buckets:
        times.append(
            [
                model.allreduce_time_bits(cluster, bucket.nbytes, level_bits(lvl))
                for lvl in levels
            ]
        )

    rung = [0] * len(buckets)  # index into `levels` per bucket
    spent = 0.0
    attempted = 0
    accepted = 0
    while True:
        best: tuple[float, float, int] | None = None  # (ratio, dt, -index)
        for i in range(len(buckets)):
            k = rung[i]
            if k + 1 >= len(levels):
                continue
            attempted += 1
            dt = times[i][k] - times[i][k + 1]
            if dt <= 0.0:
                continue  # deeper compression doesn't pay here
            dv = (
                bucket_variances[i][levels[k + 1]]
                - bucket_variances[i][levels[k]]
            )
            if dv < 0.0:
                dv = 0.0
            if spent + dv > budget:
                continue
            # Time saved per unit variance; free moves rank by dt alone.
            ratio = dt / dv if dv > 0.0 else float("inf")
            cand = (ratio, dt, -i)
            if best is None or cand > best:
                best = cand
        if best is None:
            break
        i = -best[2]
        k = rung[i]
        spent += max(
            0.0,
            bucket_variances[i][levels[k + 1]] - bucket_variances[i][levels[k]],
        )
        rung[i] = k + 1
        accepted += 1

    chosen = tuple(levels[k] for k in rung)
    report = CompressionReport(
        levels=chosen,
        base_allreduce_seconds=sum(t[0] for t in times),
        compressed_allreduce_seconds=sum(
            times[i][rung[i]] for i in range(len(buckets))
        ),
        added_variance=spent,
        variance_budget=budget,
        steps_attempted=attempted,
        steps_accepted=accepted,
    )
    return chosen, report
