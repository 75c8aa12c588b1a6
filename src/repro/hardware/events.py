"""Elastic cluster membership: churn events and membership deltas.

QSync's planner assumes a fixed hybrid cluster, but the cloud-edge
deployments it targets (ACE-Sync's habitat, PAPERS.md) lose and regain
workers mid-run.  This module supplies the vocabulary for that churn:

* :class:`ClusterEvent` — one timestamped membership change: a ``join``
  (a new rank appears with its device and NIC), a ``leave`` (a rank is
  decommissioned; its rank number is *retired*, leaving a gap — ranks are
  identities, never re-packed), or a ``degrade`` (a surviving rank slows
  down by a multiplicative factor, composing with
  :class:`~repro.engine.perturbation.Perturbation`'s input-transform
  semantics);
* :class:`MembershipDelta` — the net effect of an event batch relative to a
  starting cluster: which ranks joined, left, were replaced, or degraded;
* :func:`validate_events` — before-any-work validation (the
  :class:`~repro.session.request.PlanRequest` discipline): each
  ``ValueError`` names the offending field;
* :func:`apply_events` — fold a batch into a new :class:`Cluster` (with its
  topology rebuilt node-by-node, so node grouping survives partial-node
  departures) plus the delta.  A ``leave`` that drops membership below the
  caller's quorum raises :class:`~repro.common.errors.QuorumLostError`;
  anything above it is survivable.  A batch with no net membership change
  returns the *original cluster object*, so downstream re-planning is a
  guaranteed bit-identical no-op.

Event *traces* are seed-derived via :func:`repro.common.rng.derive_seed`
(see :mod:`repro.experiments.churn`), never wall-clock or shared-RNG
driven, so every churn scenario is exactly reproducible across processes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

from repro.common.errors import QuorumLostError
from repro.hardware.cluster import Cluster, Worker
from repro.hardware.device import DeviceSpec
from repro.hardware.topology import INTER, LinkSpec, NodeSpec, Topology

#: The event vocabulary.  Append-only: kinds participate in sweep-cell
#: fingerprints via experiment kwargs.
EVENT_KINDS = ("join", "leave", "degrade")


@dataclasses.dataclass(frozen=True)
class ClusterEvent:
    """One timestamped cluster membership change.

    Parameters
    ----------
    time:
        Simulated seconds since run start at which the event lands.  The
        segmented engine applies it at the first iteration boundary at or
        after this instant.
    kind:
        ``"join"``, ``"leave"`` or ``"degrade"``.
    rank:
        The affected rank.  Joins introduce a rank not currently a member
        (including a previously retired one rejoining); leaves and degrades
        target current members.
    device:
        Required for ``join``: the device spec of the arriving worker.
    link_bandwidth:
        Required for ``join``: the arriving worker's NIC bandwidth in
        bytes/s.
    factor:
        For ``degrade``: multiplicative compute slowdown (``2.0`` = half
        speed), composing with any prior degradation of the same rank.
        Ignored for joins/leaves.
    """

    time: float
    kind: str
    rank: int
    device: DeviceSpec | None = None
    link_bandwidth: float | None = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(
                f"time must be finite and >= 0 seconds, got {self.time}"
            )
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ValueError(
                f"factor must be finite and > 0, got {self.factor}"
            )
        if self.kind == "join":
            if self.device is None:
                raise ValueError(
                    f"device is required for a join event (rank {self.rank})"
                )
            if self.link_bandwidth is None or not math.isfinite(
                self.link_bandwidth
            ) or self.link_bandwidth <= 0:
                raise ValueError(
                    f"link_bandwidth must be finite and > 0 bytes/s for a "
                    f"join event (rank {self.rank}), got {self.link_bandwidth}"
                )

    def describe(self) -> str:
        if self.kind == "join":
            return f"t={self.time:g}s join rank {self.rank} ({self.device.name})"
        if self.kind == "degrade":
            return f"t={self.time:g}s degrade rank {self.rank} x{self.factor:g}"
        return f"t={self.time:g}s leave rank {self.rank}"


@dataclasses.dataclass(frozen=True)
class MembershipDelta:
    """Net effect of an event batch relative to a starting cluster.

    ``degraded`` lists each *surviving* rank's composed slowdown factor
    (multiplicative over its degrade events; a rank's degradation dies with
    it if it leaves, and a rejoining rank starts fresh).
    """

    joined: tuple[int, ...] = ()
    left: tuple[int, ...] = ()
    #: Ranks that left and rejoined within the batch with a *different*
    #: worker (device or NIC): members at both ends, but not reusable.
    replaced: tuple[int, ...] = ()
    degraded: tuple[tuple[int, float], ...] = ()

    @property
    def is_noop(self) -> bool:
        """True when the batch changed nothing (not even degradations)."""
        return (
            not self.joined
            and not self.left
            and not self.replaced
            and not self.degraded
        )

    def describe(self) -> str:
        parts = []
        if self.joined:
            parts.append(f"+{list(self.joined)}")
        if self.left:
            parts.append(f"-{list(self.left)}")
        if self.replaced:
            parts.append(f"~{list(self.replaced)}")
        for rank, factor in self.degraded:
            parts.append(f"rank{rank}x{factor:g}")
        return f"MembershipDelta({', '.join(parts) or 'noop'})"


def validate_events(
    events: Sequence[ClusterEvent], cluster: Cluster
) -> None:
    """Reject an inconsistent event batch before any work is done.

    Checks (each failure is a ``ValueError`` naming the offending field):

    * ``time`` is non-decreasing across the batch;
    * ``rank`` of every leave/degrade is a member at that point in the
      replayed membership; ``rank`` of every join is not.
    """
    members = {w.rank for w in cluster.workers}
    prev_time = -math.inf
    for i, ev in enumerate(events):
        if not isinstance(ev, ClusterEvent):
            raise ValueError(
                f"events[{i}] must be a ClusterEvent, got {type(ev).__name__}"
            )
        if ev.time < prev_time:
            raise ValueError(
                f"events[{i}] time must be non-decreasing: {ev.time} after "
                f"{prev_time} ({ev.describe()})"
            )
        prev_time = ev.time
        if ev.kind == "join":
            if ev.rank in members:
                raise ValueError(
                    f"events[{i}] rank {ev.rank} is already a member; a join "
                    f"must introduce a new (or retired) rank"
                )
            members.add(ev.rank)
        else:
            if ev.rank not in members:
                raise ValueError(
                    f"events[{i}] rank {ev.rank} is unknown at t={ev.time:g}s "
                    f"(members: {sorted(members)}); a {ev.kind} must target a "
                    f"current member"
                )
            if ev.kind == "leave":
                members.discard(ev.rank)


def apply_events(
    cluster: Cluster,
    events: Iterable[ClusterEvent],
    quorum: int = 1,
) -> tuple[Cluster, MembershipDelta]:
    """Fold an event batch into a new cluster plus its membership delta.

    The topology is rebuilt node-by-node: a leaving rank is removed from
    its hosting node (the node itself is dropped once empty, so a
    partial-node departure keeps its siblings on the fast intra-node
    fabric); a joining rank gets its own single-rank node behind a NIC of
    its declared bandwidth — the same shape :meth:`Topology.flat` gives
    every worker.

    Raises
    ------
    QuorumLostError
        The moment a ``leave`` drops membership below ``quorum``.
    ValueError
        From :func:`validate_events`, before anything is applied.
    """
    if quorum < 1:
        raise ValueError(f"quorum must be >= 1, got {quorum}")
    events = tuple(events)
    validate_events(events, cluster)

    workers: dict[int, Worker] = {w.rank: w for w in cluster.workers}
    original = dict(workers)
    factors: dict[int, float] = {}
    # Mutable node plans: surviving original nodes in original order, then
    # joined single-rank nodes in join order.
    node_plans: list[list] = [
        [n.name, list(n.ranks), n.intra_link, n.uplink]
        for n in cluster.topology.nodes
    ]

    for ev in events:
        if ev.kind == "leave":
            del workers[ev.rank]
            factors.pop(ev.rank, None)
            for plan in node_plans:
                if ev.rank in plan[1]:
                    plan[1].remove(ev.rank)
                    break
            if len(workers) < quorum:
                raise QuorumLostError(
                    f"leave of rank {ev.rank} at t={ev.time:g}s leaves "
                    f"{len(workers)} worker(s), below the quorum of {quorum} "
                    f"(survivors: {sorted(workers)})"
                )
        elif ev.kind == "join":
            workers[ev.rank] = Worker(
                rank=ev.rank,
                device=ev.device,
                link_bandwidth=ev.link_bandwidth,
            )
            factors.pop(ev.rank, None)
            nic = LinkSpec(
                f"nic{ev.rank}",
                ev.link_bandwidth,
                cluster.collective_latency,
                INTER,
            )
            node_plans.append([f"n{ev.rank}", [ev.rank], nic, nic])
        else:  # degrade
            factors[ev.rank] = factors.get(ev.rank, 1.0) * ev.factor

    joined = tuple(sorted(r for r in workers if r not in original))
    left = tuple(sorted(r for r in original if r not in workers))
    replaced = {
        r
        for r in workers
        if r in original and workers[r] != original[r]
    }
    delta = MembershipDelta(
        joined=joined,
        left=left,
        replaced=tuple(sorted(replaced)),
        degraded=tuple(sorted((r, f) for r, f in factors.items() if f != 1.0)),
    )

    if tuple(workers[r] for r in sorted(workers)) == cluster.workers:
        # No net membership change: hand back the *same* object so warm
        # re-planning on it is bit-identical by construction.
        return cluster, delta

    topology = Topology(
        nodes=tuple(
            NodeSpec(name=name, ranks=tuple(ranks), intra_link=intra, uplink=up)
            for name, ranks, intra, up in node_plans
            if ranks
        )
    )
    new_cluster = Cluster(
        name=cluster.name,
        workers=tuple(workers[r] for r in sorted(workers)),
        collective_latency=cluster.collective_latency,
        topology=topology,
    )
    return new_cluster, delta
