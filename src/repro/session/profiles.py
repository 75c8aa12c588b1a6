"""The session's profiling-artifact store.

One :class:`ProfileStore` owns the expensive, reusable artifacts of the
Fig. 3 pipeline — per-device-type operator cost catalogs, fitted
casting-cost models, synthesized indicator statistics, and built template
DAGs — keyed by :mod:`repro.common.stable_hash` fingerprints of everything
the artifact actually depends on.  Repeated ``PlanSession.plan()`` calls on
the same device types therefore re-profile nothing: the catalog key digests
the DAG's profiling-relevant structure (names, kinds, shapes, FLOPs,
kernel precision sets, edges), the device's full analytical spec, the
backend's measurement configuration, and the repeat count — so a hit is
bit-identical to a fresh profile (backend jitter is keyed per
(op, precision, rep), never drawn from mutable RNG state).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from repro.backend.lp_backend import LPBackend
from repro.common.stable_hash import stable_digest
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster, Worker
from repro.hardware.device import DeviceSpec
from repro.profiling.casting import CastCostCalculator
from repro.profiling.profiler import OperatorCostCatalog, profile_operator_costs
from repro.profiling.stats import OperatorStats, synthesize_stats


@dataclasses.dataclass
class SessionStats:
    """Counters proving (or disproving) cross-query artifact reuse."""

    plan_calls: int = 0
    prepare_calls: int = 0
    #: ``PlanSession.replan`` invocations (each also counts as a plan call).
    replan_calls: int = 0
    #: From-scratch ``profile_operator_costs`` runs / cache hits.
    catalog_profiles: int = 0
    catalog_hits: int = 0
    #: From-scratch ``CastCostCalculator`` fits / cache hits.
    cast_fits: int = 0
    cast_hits: int = 0
    #: ``synthesize_stats`` runs / cache hits.
    stats_syntheses: int = 0
    stats_hits: int = 0
    #: Template DAG builds / cache hits (string-named models only).
    template_builds: int = 0
    template_hits: int = 0
    #: Requests served by joining another caller's identical in-flight
    #: computation (or a ``plan_many`` duplicate) instead of planning —
    #: incremented only under the :class:`~repro.service.PlanService` lock.
    coalesced_requests: int = 0
    #: Persistent-store artifact loads that served (``disk_hits``) or failed
    #: (``disk_misses`` — absent, unreadable, stale-format, or wrong-key
    #: files, all of which degrade to recomputation, never errors).
    disk_hits: int = 0
    disk_misses: int = 0

    @property
    def profile_events(self) -> int:
        """Catalog profilings + cast-model fits — the expensive work a warm
        session must not repeat (the acceptance counter)."""
        return self.catalog_profiles + self.cast_fits


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def device_fingerprint(device: DeviceSpec) -> str:
    """Digest of every :class:`DeviceSpec` field a measurement can read —
    two devices with equal fingerprints produce identical catalogs."""
    return stable_digest(
        (
            device.name,
            device.arch,
            {p.value: float(f) for p, f in device.peak_flops.items()},
            int(device.memory_bytes),
            float(device.mem_bandwidth),
            float(device.kernel_launch_overhead),
            bool(device.is_training_gpu),
            device.sharing,
            float(device.memory_fraction),
            float(device.compute_fraction),
        )
    )


def backend_fingerprint(backend: LPBackend) -> str:
    """Digest of the backend's measurement configuration (its jitter is
    keyed per sample from ``seed``, so equal configs measure equal)."""
    return stable_digest(
        (
            device_fingerprint(backend.device),
            int(backend.seed),
            float(backend.measurement_noise),
            bool(backend.dequant_fusion),
            bool(backend.minmax.optimized),
        )
    )


def profiling_fingerprint(dag: PrecisionDAG) -> str:
    """Digest of everything catalog profiling reads off a DAG: per-op name,
    kind, shapes, FLOPs, the kernel precision set, and the predecessor
    lists (which set each op's input element count).

    Deliberately finer than :meth:`PrecisionDAG.structure_fingerprint`
    (which omits FLOPs and kernel sets): this key must guarantee that a
    cache hit serves a catalog bit-identical to a fresh profile.
    """
    return stable_digest(
        tuple(
            (
                name,
                dag.spec(name).kind,
                dag.spec(name).output_shape,
                dag.spec(name).weight_shape,
                float(dag.spec(name).flops),
                tuple(p.value for p in dag.spec(name).supported_precisions()),
                tuple(dag.predecessors(name)),
            )
            for name in dag.topo_order()
        )
    )


# ---------------------------------------------------------------------------
# backend resolution (per-rank defaults plus validated partial overrides)
# ---------------------------------------------------------------------------


def resolve_backends(
    cluster: Cluster,
    backends: Mapping[int, LPBackend] | None = None,
    seed: int = 0,
) -> dict[int, LPBackend]:
    """Per-rank backends for a cluster, accepting *partial* overrides.

    Missing ranks get a default ``LPBackend(worker.device, seed=seed)``;
    a provided backend whose device does not match its rank's worker — or
    a rank the cluster does not have — raises :class:`ValueError` instead
    of surfacing later as a baffling KeyError or wrong-device catalog.  So
    do same-named devices whose :func:`device_fingerprint` or
    :func:`backend_fingerprint` differ: each device type is profiled and
    planned once, so they would all be priced like the first.
    """
    provided = dict(backends) if backends else {}
    known_ranks = {w.rank for w in cluster.workers}
    stray = sorted(set(provided) - known_ranks)
    if stray:
        raise ValueError(
            f"backends provided for ranks {stray} not present in cluster "
            f"{cluster.name!r} (ranks: {sorted(known_ranks)})"
        )
    resolved: dict[int, LPBackend] = {}
    first_of_type: dict[str, Worker] = {}
    for w in cluster.workers:
        backend = provided.get(w.rank)
        if backend is None:
            backend = LPBackend(w.device, seed=seed)
        elif backend.device.name != w.device.name:
            raise ValueError(
                f"backend for rank {w.rank} models device "
                f"{backend.device.name!r} but the cluster places "
                f"{w.device.name!r} there"
            )
        resolved[w.rank] = backend
        # Equal devices on default backends measure alike: no digests then.
        first = first_of_type.setdefault(w.device.name, w)
        ranks = {first.rank, w.rank}
        if (first.device != w.device or ranks & provided.keys()) and (
            device_fingerprint(first.device),
            backend_fingerprint(resolved[first.rank]),
        ) != (device_fingerprint(w.device), backend_fingerprint(backend)):
            raise ValueError(
                f"ranks {first.rank} and {w.rank} both run a device named "
                f"{w.device.name!r} but their devices or backends measure "
                "differently; each device type is profiled and planned "
                "once, so give differing devices distinct names"
            )
    return resolved


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class ProfileStore:
    """Fingerprint-keyed cache of profiling artifacts (one per session).

    Lookup discipline (the extraction points a persistent subclass hooks):
    each ``*_for`` method consults the in-memory map, then offers the key to
    a ``_fetch_*`` hook (a second cache tier — this base class has none and
    always misses), and only then pays for the computation, handing the
    fresh artifact to the matching ``_persist_*`` hook.  Keys are built from
    :mod:`repro.common.stable_hash` fingerprints only, so a subclass may use
    them verbatim as cross-process content addresses.
    """

    def __init__(self) -> None:
        self.stats = SessionStats()
        self._catalogs: dict[tuple, OperatorCostCatalog] = {}
        self._cast_calcs: dict[tuple, CastCostCalculator] = {}
        self._op_stats: dict[tuple, dict[str, OperatorStats]] = {}
        self._templates: dict[tuple, PrecisionDAG] = {}

    # -- extraction points (overridden by the persistent store) --------
    def _fetch_catalog(self, key: tuple) -> OperatorCostCatalog | None:
        """Second-tier catalog lookup; ``None`` = miss (base: always)."""
        return None

    def _persist_catalog(self, key: tuple, catalog: OperatorCostCatalog) -> None:
        """Offer a freshly profiled catalog to the second tier (base: drop)."""

    def _fetch_cast(
        self, key: tuple, backend: LPBackend
    ) -> CastCostCalculator | None:
        """Second-tier cast-fit lookup (``backend`` rebinds the fitted
        models to a live measurement backend); ``None`` = miss."""
        return None

    def _persist_cast(self, key: tuple, calc: CastCostCalculator) -> None:
        """Offer a freshly fitted cast calculator to the second tier."""

    def _fetch_stats(self, key: tuple) -> dict[str, OperatorStats] | None:
        """Second-tier synthesized-stats lookup; ``None`` = miss."""
        return None

    def _persist_stats(self, key: tuple, stats: dict[str, OperatorStats]) -> None:
        """Offer freshly synthesized stats to the second tier."""

    # -- catalogs ------------------------------------------------------
    def catalog_for(
        self,
        dag: PrecisionDAG,
        device: DeviceSpec,
        backend: LPBackend,
        repeats: int,
    ) -> OperatorCostCatalog:
        key = (
            "catalog",
            profiling_fingerprint(dag),
            backend_fingerprint(backend),
            int(repeats),
        )
        hit = self._catalogs.get(key)
        if hit is not None:
            self.stats.catalog_hits += 1
            return hit
        fetched = self._fetch_catalog(key)
        if fetched is not None:
            self.stats.catalog_hits += 1
            self._catalogs[key] = fetched
            return fetched
        self.stats.catalog_profiles += 1
        catalog = profile_operator_costs(dag, backend, repeats=repeats)
        self._catalogs[key] = catalog
        self._persist_catalog(key, catalog)
        return catalog

    # -- cast-cost fits ------------------------------------------------
    def cast_calc_for(self, backend: LPBackend) -> CastCostCalculator:
        key = ("cast", backend_fingerprint(backend))
        hit = self._cast_calcs.get(key)
        if hit is not None:
            self.stats.cast_hits += 1
            return hit
        fetched = self._fetch_cast(key, backend)
        if fetched is not None:
            self.stats.cast_hits += 1
            self._cast_calcs[key] = fetched
            return fetched
        self.stats.cast_fits += 1
        calc = CastCostCalculator(backend)
        self._cast_calcs[key] = calc
        self._persist_cast(key, calc)
        return calc

    # -- synthesized indicator statistics ------------------------------
    def stats_for(
        self, template: PrecisionDAG, seed: int
    ) -> dict[str, OperatorStats]:
        key = ("stats", template.structure_fingerprint(), int(seed))
        hit = self._op_stats.get(key)
        if hit is not None:
            self.stats.stats_hits += 1
            return hit
        fetched = self._fetch_stats(key)
        if fetched is not None:
            self.stats.stats_hits += 1
            self._op_stats[key] = fetched
            return fetched
        self.stats.stats_syntheses += 1
        stats = synthesize_stats(template, seed=seed)
        self._op_stats[key] = stats
        self._persist_stats(key, stats)
        return stats

    # -- template DAGs -------------------------------------------------
    def template_for(
        self, key: tuple | None, build: Callable[[], PrecisionDAG]
    ) -> PrecisionDAG:
        """Cached template when ``key`` identifies the recipe (string-named
        models); opaque builders/DAG instances bypass the cache."""
        if key is None:
            return build()
        full_key = ("template", key)
        hit = self._templates.get(full_key)
        if hit is not None:
            self.stats.template_hits += 1
            return hit
        self.stats.template_builds += 1
        template = build()
        self._templates[full_key] = template
        return template
