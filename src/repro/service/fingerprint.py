"""Content fingerprints for plan requests — the coalescing identity.

Request coalescing and batched grouping must key on what a request *means*,
never on object identity: two ``PlanRequest`` instances built independently
by two threads describe the same query and must share one computation (and
one ``PlanOutcome``).  :func:`request_fingerprint` digests every
result-relevant member through :mod:`repro.common.stable_hash`, reusing the
session's device/backend fingerprints so the identity is exactly as fine as
the profiling cache keys underneath.

The content-vs-identity boundary is explicit: a request carrying an
*opaque* member — a prebuilt :class:`PrecisionDAG`, a model-builder
callable, a custom collective-model/schedule-policy instance,
pre-collected stats — has no content address, and
:func:`request_fingerprint` returns ``None``.  Opaque requests are still
served (under the service lock), they just never coalesce: inventing an
identity-derived key there would alias distinct queries.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.common.stable_hash import stable_digest, try_stable_digest
from repro.hardware.cluster import Cluster
from repro.hardware.topology import LinkSpec, NodeSpec, Topology
from repro.session.profiles import backend_fingerprint, device_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.request import PlanRequest

__all__ = ["cluster_fingerprint", "request_fingerprint", "request_token"]


def _link_token(link: LinkSpec) -> tuple:
    return (link.name, float(link.bandwidth), float(link.latency), link.tier)


def _node_token(node: NodeSpec) -> tuple:
    return (
        node.name,
        tuple(int(r) for r in node.ranks),
        _link_token(node.intra_link),
        _link_token(node.uplink),
    )


def _topology_token(topology: Topology) -> tuple:
    return tuple(_node_token(n) for n in topology.nodes)


def cluster_fingerprint(cluster: Cluster) -> str:
    """Digest of everything planning reads off a cluster: name, per-worker
    (rank, device, link bandwidth), collective latency, and the node
    topology.  Two clusters with equal fingerprints plan identically."""
    return stable_digest(
        (
            "cluster",
            cluster.name,
            float(cluster.collective_latency),
            tuple(
                (int(w.rank), device_fingerprint(w.device), float(w.link_bandwidth))
                for w in cluster.workers
            ),
            _topology_token(cluster.topology),
        )
    )


def request_token(request: "PlanRequest") -> tuple:
    """The fingerprint input tree of one request.

    Content-addressable members become primitives/fingerprints; opaque
    members pass through *raw*, so :func:`repro.common.stable_hash.
    try_stable_digest` rejects the whole tree (returns ``None``) instead of
    silently keying on a partial identity.
    """
    cluster = (
        request.cluster
        if isinstance(request.cluster, str)
        else cluster_fingerprint(request.cluster)
    )
    backends = (
        None
        if request.backends is None
        else tuple(
            sorted(
                (int(rank), backend_fingerprint(backend))
                for rank, backend in request.backends.items()
            )
        )
    )
    perturbation = (
        None
        if request.perturbation is None
        else (
            int(request.perturbation.seed),
            float(request.perturbation.compute_jitter),
            float(request.perturbation.bandwidth_drift),
            tuple(request.perturbation.stragglers),
        )
    )
    config = (
        None if request.config is None else dataclasses.asdict(request.config)
    )
    compression = (
        None
        if request.compression is None
        else (
            tuple(int(lvl) for lvl in request.compression.levels),
            float(request.compression.loss_budget),
        )
    )
    return (
        "plan_request",
        request.model,
        dict(request.model_kwargs),
        cluster,
        request.strategy,
        request.loss,
        request.batch_size,
        int(request.optimizer_slots),
        request.collective_model,
        request.schedule_policy,
        perturbation,
        request.indicator,
        config,
        int(request.seed),
        int(request.profile_repeats),
        backends,
        request.stats,
        compression,
    )


def request_fingerprint(request: "PlanRequest") -> str | None:
    """Content address of one request, or ``None`` when the request holds
    an opaque member and therefore must not coalesce with anything."""
    return try_stable_digest(request_token(request))
