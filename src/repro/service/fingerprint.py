"""Content fingerprints for plan requests — the coalescing identity.

Request coalescing and batched deduplication must key on what a request
*means*, never on object identity: two ``PlanRequest`` instances built
independently by two threads describe the same query and must share one
computation (and one ``PlanOutcome``).  Every key here is the session's one
content-key rule, :func:`repro.session.profiles.content_token`, applied to
the value it describes: a frozen dataclass encodes as its type plus every
field, recursively, so a new field — on the request, a perturbation, a
cluster, a device — joins the identity without being listed anywhere.

The content-vs-identity boundary is explicit: a request carrying an
*opaque* member — a prebuilt :class:`PrecisionDAG`, a model-builder
callable, a custom collective-model/schedule-policy instance,
pre-collected (mutable) stats — has no content address, and
:func:`request_fingerprint` returns ``None``.  Opaque requests are still
served (under the service lock), they just never coalesce: inventing an
identity-derived key there would alias distinct queries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.stable_hash import stable_digest, try_stable_digest
from repro.hardware.cluster import Cluster
from repro.session.profiles import content_token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.request import PlanRequest

__all__ = ["cluster_fingerprint", "request_fingerprint", "request_token"]


def cluster_fingerprint(cluster: Cluster) -> str:
    """Digest of every cluster field — name, workers with their devices and
    links, collective latency, node topology.  Two clusters with equal
    fingerprints plan identically."""
    return stable_digest(content_token(cluster))


def request_token(request: "PlanRequest") -> tuple:
    """The fingerprint input tree of one request.

    Opaque members pass through *raw*, so
    :func:`repro.common.stable_hash.try_stable_digest` rejects the whole
    tree (returns ``None``) instead of silently keying on a partial
    identity.
    """
    return content_token(request)


def request_fingerprint(request: "PlanRequest") -> str | None:
    """Content address of one request, or ``None`` when the request holds
    an opaque member and therefore must not coalesce with anything."""
    return try_stable_digest(request_token(request))
