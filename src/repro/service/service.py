"""`PlanService` — concurrent, coalescing plan serving over one session.

The :class:`~repro.session.PlanSession` from PR 4 is a single-caller,
in-memory object.  A :class:`PlanService` turns it into the serving tier
ROADMAP open item 3 asks for ("planning-as-a-query must be cheap,
concurrent, and cache-persistent across restarts"):

* **thread safety** — the wrapped session and its stores are never touched
  outside the service locks (see `Lock discipline` below), so any number
  of threads may call :meth:`plan` / :meth:`plan_many` / :meth:`replan`;
* **request coalescing** — identical in-flight requests (keyed by
  :func:`~repro.service.fingerprint.request_fingerprint` — content, never
  object identity) share one computation, and every caller receives the
  *same* :class:`~repro.session.PlanOutcome` object;
* **persistence** — constructed with ``root=...`` the service plans
  against a :class:`~repro.session.ProfileStore` with a disk tier under
  that root, so a fresh process warm-starts from disk with zero profiling
  events;
* **batching** — :meth:`plan_many` deduplicates identical requests and
  plans the distinct ones in order; the session's content-keyed stores
  already pay profiling and template resolution once per distinct
  model×device-type, whatever the order.

Lock discipline (also documented in CONTRIBUTING.md):

``_lock``
    Guards the in-flight table and every ``SessionStats`` counter mutation
    the service performs.  Held only for map/counter operations — never
    while planning — so arriving callers can always register against an
    in-flight computation.
``_plan_lock``
    Serializes every entry into the wrapped session (``prepare``/``plan``/
    ``replan``).  The session's stores are plain dicts and planners mutate
    per-request replayer state; one planning pass at a time is the
    correctness contract (and costs little: planning is CPU-bound Python,
    so the win at scale is coalescing + warm stores, not lock-free
    parallelism).  Acquire order is always ``_lock`` → release → wait/plan;
    the two locks are never held together, so there is no ordering cycle.

Parity is the oracle: a service-mediated plan is bit-identical to a direct
``PlanSession.plan()`` of the same request, and coalesced callers receive
results bit-identical to serial execution (``tests/test_service.py``).
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence, Union

from repro.hardware.events import ClusterEvent
from repro.session.outcome import PlanOutcome
from repro.session.profiles import ProfileStore
from repro.session.request import PlanRequest
from repro.session.session import PlanContext, PlanSession, ReplanOutcome
from repro.service.fingerprint import request_fingerprint


class _InFlight:
    """One in-progress computation that identical requests attach to."""

    __slots__ = ("event", "outcome", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: PlanOutcome | None = None
        self.error: BaseException | None = None


class PlanService:
    """Thread-safe, coalescing front end over one :class:`PlanSession`.

    Parameters
    ----------
    root:
        Optional disk-tier root of the session's :class:`ProfileStore`.
        When given, profiling artifacts are served from (and written to)
        ``<root>/profiles/`` so they survive the process; when omitted the
        service is in-memory only.
    profile_seed:
        Forwarded to the wrapped session (backend measurement noise seed).
    session:
        Adopt an existing session (its warm stores included) instead of
        building one.  Mutually exclusive with ``root`` — a session already
        owns its store.  The caller must stop driving the session directly:
        after adoption the service's locks are the only sanctioned entry.
    """

    def __init__(
        self,
        root: str | None = None,
        profile_seed: int = 0,
        session: PlanSession | None = None,
    ) -> None:
        if session is not None and root is not None:
            raise ValueError(
                "pass either root= (build a persistent session) or "
                "session= (adopt one), not both — an adopted session "
                "already owns its ProfileStore"
            )
        if session is None:
            session = PlanSession(
                profile_seed=profile_seed, profiles=ProfileStore(root)
            )
        self.session = session
        self._lock = threading.Lock()
        self._plan_lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """The wrapped session's :class:`~repro.session.SessionStats`
        (coalescing and disk counters included)."""
        return self.session.stats

    # ------------------------------------------------------------------
    def plan(self, request: PlanRequest) -> PlanOutcome:
        """Serve one request, joining an identical in-flight computation
        when there is one.  Coalesced callers all receive the leader's
        ``PlanOutcome`` object — treat outcomes as read-only."""
        fingerprint = request_fingerprint(request)
        if fingerprint is None:
            # Opaque request: no content address, so no coalescing —
            # just a serialized pass through the session.
            with self._plan_lock:
                return self.session.plan(request)

        with self._lock:
            entry = self._inflight.get(fingerprint)
            if entry is None:
                entry = _InFlight()
                self._inflight[fingerprint] = entry
                leader = True
            else:
                self.session.profiles.stats.coalesced_requests += 1
                leader = False

        if not leader:
            entry.event.wait()
            if entry.error is not None:
                raise entry.error
            return entry.outcome

        try:
            with self._plan_lock:
                entry.outcome = self.session.plan(request)
            return entry.outcome
        except BaseException as exc:
            entry.error = exc
            raise
        finally:
            with self._lock:
                del self._inflight[fingerprint]
            entry.event.set()

    # ------------------------------------------------------------------
    def plan_many(
        self, requests: Iterable[PlanRequest]
    ) -> list[PlanOutcome]:
        """Serve a batch; returns outcomes in the input order.

        Identical requests are planned once (the duplicates count as
        ``coalesced_requests`` and share the one outcome).  Distinct
        requests run in first-appearance order; each profiling artifact is
        still paid once per batch, because the session's store keys it by
        content and every later request that needs it hits.
        """
        requests = list(requests)
        outcomes: list[PlanOutcome | None] = [None] * len(requests)

        groups: dict[str, list[int]] = {}
        opaque: list[int] = []
        for index, request in enumerate(requests):
            fingerprint = request_fingerprint(request)
            if fingerprint is None:
                opaque.append(index)
            else:
                groups.setdefault(fingerprint, []).append(index)

        for indices in groups.values():
            outcome = self.plan(requests[indices[0]])
            for index in indices:
                outcomes[index] = outcome
            if len(indices) > 1:
                with self._lock:
                    self.session.profiles.stats.coalesced_requests += (
                        len(indices) - 1
                    )
        for index in opaque:
            outcomes[index] = self.plan(requests[index])
        return outcomes

    # ------------------------------------------------------------------
    def replan(
        self,
        ctx: Union[PlanContext, PlanRequest],
        events: Sequence[ClusterEvent],
        quorum: int = 1,
    ) -> ReplanOutcome:
        """Serialized passthrough to :meth:`PlanSession.replan` — churn
        traffic rides the same warm stores (and, with ``root=``, the same
        persistent tier) as everything else.  Replans are not coalesced:
        each one may carry a distinct pre-churn context object."""
        with self._plan_lock:
            return self.session.replan(ctx, events, quorum=quorum)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        store = self.session.profiles
        where = "memory" if store.disk is None else store.disk.root
        return f"PlanService({where}, {store.stats.plan_calls} plans served)"


def plan_many(
    requests: Iterable[PlanRequest],
    root: str | None = None,
    profile_seed: int = 0,
) -> list[PlanOutcome]:
    """One-shot batched planning over an ephemeral :class:`PlanService`
    (deduplication included) — for callers that plan one batch and need no
    service afterwards."""
    return PlanService(root=root, profile_seed=profile_seed).plan_many(requests)
