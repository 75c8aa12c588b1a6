"""Epoch-segmented simulation across cluster membership changes.

One training run, many clusters: :func:`simulate_with_churn` replays a
fixed iteration budget while folding
:class:`~repro.hardware.events.ClusterEvent` batches in as they fall due.
Each contiguous stretch of iterations on one membership is an
:class:`EpochSegment` — planned by
:meth:`~repro.session.session.PlanSession.replan` on its own
surviving-rank cluster (warm profiles, so a boundary profiles only
device types it has never seen) and priced at that segment's simulated
iteration time.  State carries over: the plan context chains from segment
to segment, and ``degrade`` events accumulate into the request's
:class:`~repro.engine.perturbation.Perturbation` input transform.

Timing discipline: an event lands at the *first iteration boundary at or
after* its timestamp — synchronous training cannot change membership
mid-iteration.  Several events falling inside the same iteration are
applied as one batch at its end.  Events whose timestamps lie beyond the
run's simulated end are reported in
:attr:`SegmentedRun.unapplied_events`, not silently dropped.

Everything here is pure simulated clock — no wall time — so segmented
runs are deterministic and safe to cache as sweep artifacts.

A ``leave`` that would drop membership below the caller's quorum raises
:class:`~repro.common.errors.QuorumLostError` out of the boundary's
replan, exactly as the direct API does.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Sequence

from repro.hardware.events import ClusterEvent, MembershipDelta, validate_events

if TYPE_CHECKING:  # pragma: no cover - runtime import would cycle via session
    from repro.session.request import PlanRequest
    from repro.session.session import PlanSession


@dataclasses.dataclass(frozen=True)
class EpochSegment:
    """One contiguous stretch of iterations on one cluster membership."""

    index: int
    #: Simulated seconds at which the segment starts/ends.
    start_s: float
    end_s: float
    iterations: int
    #: Simulated duration of one iteration on this membership.
    iteration_s: float
    #: The member ranks (ascending; gaps mark retired ranks).
    ranks: tuple[int, ...]
    #: Events applied at this segment's opening boundary (empty for the
    #: first segment).
    opening_events: tuple[ClusterEvent, ...] = ()
    #: Net membership delta of the opening batch.
    delta: MembershipDelta | None = None
    #: Composed (rank, factor) slowdowns active during this segment.
    degraded: tuple[tuple[int, float], ...] = ()
    #: Profiling events the opening re-plan paid for (0 = fully warm).
    new_profile_events: int = 0

    def describe(self) -> str:
        parts = [
            f"seg{self.index}",
            f"[{self.start_s:g}s, {self.end_s:g}s)",
            f"{self.iterations} it x {self.iteration_s * 1e3:.2f} ms",
            f"ranks {list(self.ranks)}",
        ]
        if self.opening_events:
            parts.append(
                "after " + "; ".join(e.describe() for e in self.opening_events)
            )
        return " ".join(parts)


@dataclasses.dataclass(frozen=True)
class SegmentedRun:
    """The full epoch-segmented simulation of one churn scenario."""

    segments: tuple[EpochSegment, ...]
    total_iterations: int
    #: Simulated end-to-end duration (sum over segments).
    simulated_s: float
    #: Events whose timestamps fell beyond the simulated end of the run.
    unapplied_events: tuple[ClusterEvent, ...] = ()

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def mean_iteration_s(self) -> float:
        if self.total_iterations == 0:
            return 0.0
        return self.simulated_s / self.total_iterations

    def describe(self) -> str:
        lines = [
            f"SegmentedRun: {self.total_iterations} iterations over "
            f"{self.n_segments} segment(s), {self.simulated_s:.3f}s simulated"
        ]
        lines.extend("  " + seg.describe() for seg in self.segments)
        if self.unapplied_events:
            lines.append(
                f"  unapplied: "
                f"{'; '.join(e.describe() for e in self.unapplied_events)}"
            )
        return "\n".join(lines)


def simulate_with_churn(
    session: "PlanSession",
    request: "PlanRequest",
    events: Sequence[ClusterEvent],
    total_iterations: int,
    quorum: int = 1,
) -> SegmentedRun:
    """Run ``total_iterations`` of ``request`` while ``events`` reshape the
    cluster, re-planning incrementally at each membership boundary.

    The event batch is validated against the starting cluster before any
    planning; quorum, however, is enforced *when a leave falls due* —
    events beyond the simulated end of the run are never applied (they are
    returned in :attr:`SegmentedRun.unapplied_events`), so a
    quorum-crossing leave the run never reaches does not raise.
    """
    if total_iterations < 1:
        raise ValueError(
            f"total_iterations must be >= 1, got {total_iterations}"
        )
    events = tuple(events)
    validate_events(events, request.resolve_cluster())

    outcome = session.plan(request)
    ctx = session.last_context
    iter_s = outcome.simulation.iteration_time

    segments: list[EpochSegment] = []
    pending = list(events)
    remaining = total_iterations
    now = 0.0
    opening: tuple[ClusterEvent, ...] = ()
    delta: MembershipDelta | None = None
    new_profile_events = 0

    while remaining > 0:
        # Iterations until the next event falls due (all of them if none
        # remain).  An event at or before `now` lands immediately, merging
        # into the current boundary batch.
        if pending:
            gap = pending[0].time - now
            n = min(remaining, max(0, math.ceil(gap / iter_s)))
        else:
            n = remaining
        if n > 0:
            pert = ctx.request.perturbation
            segments.append(
                EpochSegment(
                    index=len(segments),
                    start_s=now,
                    end_s=now + n * iter_s,
                    iterations=n,
                    iteration_s=iter_s,
                    ranks=tuple(w.rank for w in ctx.cluster.workers),
                    opening_events=opening,
                    delta=delta,
                    degraded=pert.stragglers if pert is not None else (),
                    new_profile_events=new_profile_events,
                )
            )
            now += n * iter_s
            remaining -= n
            if remaining == 0:
                break
        # Everything now due forms one boundary batch.
        batch: list[ClusterEvent] = []
        while pending and pending[0].time <= now:
            batch.append(pending.pop(0))
        if not batch:
            # Can only happen when n == 0 on the first pass with an event
            # strictly in the future of an empty timeline — defensive.
            continue
        re = session.replan(ctx, batch, quorum=quorum)
        ctx = re.context
        iter_s = re.simulation.iteration_time
        opening = tuple(batch)
        delta = re.delta
        new_profile_events = re.new_profile_events

    return SegmentedRun(
        segments=tuple(segments),
        total_iterations=total_iterations,
        simulated_s=now,
        unapplied_events=tuple(pending),
    )
