"""`PlanSession` — the front door of the Fig. 3 pipeline.

A session owns the expensive artifacts of planning (operator cost
catalogs, cast-cost fits, synthesized statistics, template DAGs, and each
device type's allocation start and price memo, keyed by stable
fingerprints in a :class:`ProfileStore`) and amortizes them across
what-if queries: different protocols, collective models, and planner
strategies on the same hardware re-profile nothing, the allocator-backed
strategies search each device type's ``T_min`` plan and brute-force start
once, and each op neighbourhood of a named model is priced once.

::

    session = PlanSession()
    request = PlanRequest(model="vgg16", model_kwargs={"batch_size": 32},
                          cluster="cluster_a_4+4")
    outcome = session.plan(request)                 # profiles once
    table = session.compare(request)                # all strategies, warm

``prepare`` exposes the intermediate :class:`PlanContext` (replayer,
backends, stats) for callers that drive the replayer directly — the
experiment harnesses and the ground-truth comparisons.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence, Union

from repro.backend.lp_backend import LPBackend
from repro.core.indicator import gamma_for_loss
from repro.core.replayer import Replayer
from repro.engine.perturbation import Perturbation
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster
from repro.hardware.events import ClusterEvent, MembershipDelta, apply_events
from repro.profiling.stats import OperatorStats
from repro.session.outcome import PlanOutcome
from repro.session.planners import available_strategies, get_planner
from repro.session.profiles import (
    ProfileStore,
    SessionStats,
    backend_fingerprint,
    resolve_backends,
)
from repro.session.request import PlanRequest


@dataclasses.dataclass
class PlanContext:
    """Everything a planner strategy needs, fully resolved.

    Built fresh per query (per-type DAGs are mutable search state), but
    the expensive members — catalogs, cast models, stats — come from the
    session's :class:`ProfileStore` when the fingerprints match.
    """

    request: PlanRequest
    session: "PlanSession"
    cluster: Cluster
    template: PrecisionDAG
    replayer: Replayer
    backends: dict[int, LPBackend]
    stats: Mapping[str, OperatorStats]
    batch_size: int
    gamma: float
    #: Device-type name -> the key of its allocation start in the
    #: session's store (``None``: an opaque model, searched every time).
    start_keys: dict[str, tuple | None]

    def start_for(self, name: str, search) -> tuple:
        """Device type ``name``'s ``(T_min plan, initial plan)`` from the
        session's store, running ``search`` only on a miss: the
        :class:`~repro.core.allocator.Allocator`'s start lookup."""
        return self.session.profiles.start_for(self.start_keys[name], search)


@dataclasses.dataclass
class ReplanOutcome:
    """Result of one incremental :meth:`PlanSession.replan` step.

    Carries the new plan, the context it was planned in (chain it into the
    next ``replan`` call as membership keeps changing), and the evidence of
    incrementality: how many profiling events the re-plan paid for
    (``0`` whenever every surviving device type was already profiled).
    """

    outcome: PlanOutcome
    context: "PlanContext"
    delta: MembershipDelta
    events: tuple[ClusterEvent, ...]
    new_profile_events: int

    @property
    def plan(self):
        return self.outcome.plan

    @property
    def simulation(self):
        return self.outcome.simulation


def _price_key(
    request: PlanRequest, template_key: tuple | None, backend_fp: str
) -> tuple | None:
    """The store key of one device type's price memo: everything an op's
    price reads besides its precision context.

    The model recipe fixes the DAG, block labels included (and with it the
    profiling fingerprint); the backend digest and the repeat count fix the
    catalog and the cast model.  The backend digest covers the worker's
    device, which :func:`resolve_backends` requires the backend to model.
    An opaque model (``template_key is None``) has no key.
    """
    if template_key is None:
        return None
    return (template_key, backend_fp, int(request.profile_repeats))


def _start_key(request: PlanRequest, price_key: tuple | None) -> tuple | None:
    """The store key of one device type's allocation start: everything its
    ``T_min`` ladder and brute force read, and nothing else — the costs
    :func:`_price_key` fixes, plus ``optimizer_slots``, which sets the
    memory model.  An opaque model has no key.
    """
    if price_key is None:
        return None
    return (*price_key, int(request.optimizer_slots))


class PlanSession:
    """Strategy-pluggable planning over a reusable profiling context.

    Parameters
    ----------
    profile_seed:
        Seed of the default per-rank :class:`LPBackend` measurement noise,
        in ``[0, 2**64)`` (``0`` is the seed of the pre-session pipeline that
        ``tests/test_session_parity.py`` keeps as its oracle — keep it to
        stay bit-identical with that pipeline).
    profiles:
        The artifact store to plan against.  ``None`` builds a private
        in-memory :class:`ProfileStore`; pass ``ProfileStore(root)`` (as
        ``PlanService(root=...)`` does) so catalogs, cast fits, and
        synthesized stats survive the process.
    """

    def __init__(
        self, profile_seed: int = 0, profiles: ProfileStore | None = None
    ) -> None:
        if not 0 <= profile_seed < 2**64:
            raise ValueError(
                f"profile_seed must lie in [0, 2**64), got {profile_seed}"
            )
        self.profile_seed = profile_seed
        self.profiles = ProfileStore() if profiles is None else profiles
        #: The context of the most recent ``plan``/``replan`` call — the
        #: natural first argument of :meth:`replan` for callers that used
        #: the one-shot :meth:`plan` API.
        self.last_context: PlanContext | None = None

    @property
    def stats(self) -> SessionStats:
        """Reuse counters (``stats.profile_events`` must not grow on a warm
        plan call over known device types)."""
        return self.profiles.stats

    # ------------------------------------------------------------------
    def prepare(self, request: PlanRequest) -> PlanContext:
        """Resolve a request into a ready-to-plan context.

        A fresh DAG per device type and a fresh :class:`Replayer` every
        time (the allocator mutates them); ``replayer.dags`` maps every
        rank of a type to its type's DAG.  Per-device-type catalogs, cast
        models and price memos come from the store whenever their
        fingerprints have been seen, so a replayer prices every op
        neighbourhood an earlier request of the same recipe priced with a
        dict lookup.
        """
        self.profiles.stats.prepare_calls += 1
        cluster = request.resolve_cluster()
        template_key = request.model_cache_key()
        template = self.profiles.template_for(
            template_key, request.build_template
        )
        backends = resolve_backends(
            cluster, request.backends, seed=self.profile_seed
        )

        # One DAG, catalog, cast model and price memo per device type
        # (resolve_backends guarantees same-named devices measure alike);
        # same-type ranks alias them, so the replayer plans each type as
        # one group.  All copies of the template digest alike: one
        # fingerprint serves every type's catalog key, and one backend
        # digest per type serves its catalog, cast-fit, price-memo and
        # allocation-start keys.
        by_type: dict[str, tuple] = {}
        dags, catalogs, cast_calcs, prices = {}, {}, {}, {}
        start_keys: dict[str, tuple | None] = {}
        fingerprint = None
        for w in cluster.workers:
            shared = by_type.get(w.device.name)
            if shared is None:
                dag = template.copy()
                if fingerprint is None:
                    fingerprint = self.profiles.copy_fingerprint(
                        template_key, dag
                    )
                backend = backends[w.rank]
                backend_fp = backend_fingerprint(backend)
                price_key = _price_key(request, template_key, backend_fp)
                shared = by_type[w.device.name] = (
                    dag,
                    self.profiles.catalog_for(
                        dag, backend, request.profile_repeats,
                        fingerprint=fingerprint, backend_fp=backend_fp,
                    ),
                    self.profiles.cast_calc_for(backend, backend_fp=backend_fp),
                    self.profiles.prices_for(price_key),
                )
                start_keys[w.device.name] = _start_key(request, price_key)
            (
                dags[w.rank], catalogs[w.rank], cast_calcs[w.rank],
                prices[w.rank],
            ) = shared

        replayer = Replayer(
            cluster,
            dags,
            catalogs,
            cast_calcs,
            optimizer_slots=request.optimizer_slots,
            collective_model=request.collective_model,
            schedule_policy=request.schedule_policy,
            perturbation=request.perturbation,
            prices=prices,
        )

        if request.batch_size is not None:
            batch_size = request.batch_size
        else:
            batch_size = int(template.spec(template.root()).output_shape[0])
        if request.stats is not None:
            stats = request.stats
        else:
            stats = self.profiles.stats_for(template, request.seed)
        gamma = gamma_for_loss(request.loss, batch_size)

        return PlanContext(
            request=request,
            session=self,
            cluster=cluster,
            template=template,
            replayer=replayer,
            backends=backends,
            stats=stats,
            batch_size=batch_size,
            gamma=gamma,
            start_keys=start_keys,
        )

    # ------------------------------------------------------------------
    def plan(self, request: PlanRequest) -> PlanOutcome:
        """Run one request through its strategy; returns the common
        :class:`PlanOutcome` (plan + simulation + report)."""
        planner = get_planner(request.strategy)  # fail before any work
        check = getattr(planner, "check_request", None)
        if check is not None:
            check(request)
        ctx = self.prepare(request)
        self.profiles.stats.plan_calls += 1
        self.last_context = ctx
        return planner.plan(ctx)

    # ------------------------------------------------------------------
    def replan(
        self,
        ctx: Union[PlanContext, PlanRequest],
        events: Sequence[ClusterEvent],
        quorum: int = 1,
    ) -> ReplanOutcome:
        """Incrementally re-plan after cluster membership events.

        Folds ``events`` into the context's cluster
        (:func:`~repro.hardware.events.apply_events`), composes ``degrade``
        events into the request's :class:`Perturbation`, and re-runs the
        request's strategy on the surviving membership — against this
        session's *warm* :class:`ProfileStore`, so already-profiled device
        types cost zero new profiling events and reuse their templates.
        The new replayer derives its DFGs anew, one per device type, from
        the session's price memos; nothing carries over from ``ctx``'s
        replayer.

        With zero events the returned outcome is bit-identical to the
        original ``plan()`` — the parity oracle pinned by
        ``tests/test_bench_churn.py``.

        Raises
        ------
        QuorumLostError
            When a ``leave`` drops membership below ``quorum``.
        ValueError
            On an inconsistent event batch, before any work.
        """
        if isinstance(ctx, PlanContext):
            request = ctx.request
            cluster = ctx.cluster
        elif isinstance(ctx, PlanRequest):
            request = ctx
            cluster = ctx.resolve_cluster()
        else:
            raise ValueError(
                f"ctx must be a PlanContext or PlanRequest, got "
                f"{type(ctx).__name__}"
            )
        planner = get_planner(request.strategy)  # fail before any work
        events = tuple(events)
        new_cluster, delta = apply_events(cluster, events, quorum=quorum)

        changes: dict = {}
        if new_cluster is not cluster:
            changes["cluster"] = new_cluster
            if request.backends:
                # Explicit backends for departed ranks would fail the
                # stray-rank check; survivors keep theirs.
                surviving_ranks = {w.rank for w in new_cluster.workers}
                kept = {
                    r: b
                    for r, b in request.backends.items()
                    if r in surviving_ranks
                }
                changes["backends"] = kept or None
        if delta.degraded:
            base = request.perturbation or Perturbation()
            changes["perturbation"] = base.with_degradations(delta.degraded)
        new_request = (
            dataclasses.replace(request, **changes) if changes else request
        )

        check = getattr(planner, "check_request", None)
        if check is not None:
            check(new_request)
        profile_before = self.profiles.stats.profile_events
        new_ctx = self.prepare(new_request)
        self.profiles.stats.plan_calls += 1
        self.profiles.stats.replan_calls += 1
        self.last_context = new_ctx
        outcome = planner.plan(new_ctx)
        return ReplanOutcome(
            outcome=outcome,
            context=new_ctx,
            delta=delta,
            events=events,
            new_profile_events=(
                self.profiles.stats.profile_events - profile_before
            ),
        )

    def compare(
        self,
        request: PlanRequest,
        strategies: Iterable[str] | None = None,
    ) -> dict[str, PlanOutcome]:
        """Run ``request`` under several strategies on this session's warm
        artifacts; returns ``{strategy: outcome}`` in deterministic order
        (the given order, or the registry's canonical order)."""
        names = (
            available_strategies() if strategies is None else tuple(strategies)
        )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate strategies in {names!r}")
        for name in names:
            get_planner(name)  # validate all before running any
        return {
            name: self.plan(dataclasses.replace(request, strategy=name))
            for name in names
        }
