"""Plan-serving layer — concurrency, coalescing, and persistence on top of
:mod:`repro.session`.

This package is the serving tier of ROADMAP open item 3: the session API
answers one caller's what-if queries in memory; the service answers *many
concurrent callers'* queries against a store that survives the process.

* :class:`PlanService` — thread-safe front end over one
  :class:`~repro.session.PlanSession` with in-flight request coalescing
  (identical concurrent requests share one computation and one outcome).
* persistence — ``PlanService(root=...)`` plans against a
  :class:`~repro.session.ProfileStore` with a disk tier
  (``<root>/profiles/<fingerprint>.json``, atomic writes, defects degrade
  to misses); :data:`~repro.session.profiles.PROFILE_FORMAT` versions its
  schema.
* :func:`plan_many` — batched planning with deduplication; the
  content-keyed stores amortize profiling across the batch.
* :func:`request_fingerprint` / :func:`cluster_fingerprint` — the content
  identities coalescing and batching key on, derived from the fields of
  the request and cluster dataclasses.

Layering (RPR004): ``service`` sits *above* ``session`` and below the
experiment harnesses; nothing below it may import it.
"""

from repro.service.fingerprint import cluster_fingerprint, request_fingerprint
from repro.service.service import PlanService, plan_many

__all__ = [
    "PlanService",
    "cluster_fingerprint",
    "plan_many",
    "request_fingerprint",
]
