"""The session's profiling-artifact store.

One :class:`ProfileStore` owns the expensive, reusable artifacts of the
Fig. 3 pipeline — per-device-type operator cost catalogs, fitted
casting-cost models, synthesized indicator statistics, built template
DAGs and their copies' fingerprints, allocation starts (a device type's
``T_min`` plan and brute-force initial plan, see
:meth:`ProfileStore.start_for`), cost-mapper price memos (see
:meth:`ProfileStore.prices_for`) and the random baseline's indicators —
keyed by :mod:`repro.common.stable_hash`
fingerprints of everything the artifact actually depends on, and all
served by one lookup (:meth:`ProfileStore._lookup`).  Repeated
``PlanSession.plan()`` calls on the same device types therefore
re-profile nothing, and what-ifs of any allocator-backed strategy
re-search no start: the catalog key digests the DAG's
profiling-relevant structure (names, kinds, shapes, FLOPs, kernel
precision sets, edges), the device's full analytical spec, the
backend's measurement configuration, and the repeat count — so a hit is
bit-identical to a fresh profile (backend jitter is keyed per
(op, precision, rep), never drawn from mutable RNG state).  Given a root,
the store also persists catalogs, cast fits and stats to disk, so they
survive the process; loads are exact (floats round-trip through JSON
byte-for-byte), which the parity oracle ``tests/test_service.py`` pins.
"""

from __future__ import annotations

import dataclasses
import os
from collections import abc
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.backend.lp_backend import LPBackend
from repro.baselines.random_ind import RandomIndicator
from repro.common.jsondir import JsonDir
from repro.common.stable_hash import stable_digest
from repro.core.dfg import OpPrice
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster, Worker
from repro.hardware.device import DeviceSpec
from repro.profiling.casting import CastCostCalculator
from repro.profiling.persistence import (
    cast_calc_from_dict,
    cast_calc_to_dict,
    catalog_from_dict,
    catalog_to_dict,
    stats_from_dict,
    stats_to_dict,
)
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
    #: Allocation starts (a device type's ``T_min`` plan and brute-force
    #: initial plan) searched for / served from memory (string-named
    #: models only; a search that raises still counts).
    start_searches: int = 0
    start_hits: int = 0
    #: Requests served by joining another caller's identical in-flight
    #: computation (or a ``plan_many`` duplicate) instead of planning —
    #: incremented only under the :class:`~repro.service.PlanService` lock.
    coalesced_requests: int = 0
    #: Disk-tier artifact loads that served (``disk_hits``) or failed
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


def content_token(value: Any) -> Any:
    """The one content-key rule: the :mod:`repro.common.stable_hash` input
    tree of a value, derived from its type instead of a hand-kept list.

    A frozen dataclass encodes as its type's qualified name plus every
    :func:`dataclasses.fields` value, recursively, so a subclass or a new
    field can never alias an old key.  An :class:`LPBackend` encodes as its
    :func:`backend_fingerprint`; mappings and sequences recurse.  Anything
    else passes through raw: primitives and enums encode, while opaque
    members (callables, built DAGs, mutable dataclasses such as provided
    stats, custom model instances) make
    :func:`~repro.common.stable_hash.try_stable_digest` return ``None``.
    """
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, LPBackend):
        return backend_fingerprint(value)
    cls = type(value)
    params = getattr(cls, "__dataclass_params__", None)
    if params is not None and params.frozen:
        fields = dataclasses.fields(cls)
        return (
            f"{cls.__module__}.{cls.__qualname__}",
            *(content_token(getattr(value, f.name)) for f in fields),
        )
    if isinstance(value, abc.Mapping):
        return {k: content_token(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [content_token(v) for v in value]
    return value


def device_fingerprint(device: DeviceSpec) -> str:
    """Digest of every :class:`DeviceSpec` field — two devices with equal
    fingerprints produce identical catalogs."""
    return stable_digest(content_token(device))


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
        elif backend.device != w.device:
            raise ValueError(
                f"backend for rank {w.rank} models device "
                f"{backend.device.name!r} but the cluster places a "
                f"different {w.device.name!r} there (devices must match "
                "in every field, not only by name)"
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


#: On-disk profile schema version; bump to invalidate every persisted
#: profile at once (serialization or profiling-semantics changes).  A key
#: change needs no bump: a file only serves the exact key it records.
PROFILE_FORMAT = 1

#: Store-key kind -> (hit counter, computation counter) in SessionStats;
#: template fingerprints, price memos and random indicators are not
#: counted.
_COUNTERS = {
    "catalog": ("catalog_hits", "catalog_profiles"),
    "cast": ("cast_hits", "cast_fits"),
    "stats": ("stats_hits", "stats_syntheses"),
    "template": ("template_hits", "template_builds"),
    "start": ("start_hits", "start_searches"),
}

#: The kinds the disk tier persists (those with a codec); the others live
#: in memory only.
_PERSISTED = ("catalog", "cast", "stats")


class ProfileStore:
    """Fingerprint-keyed cache of profiling artifacts (one per session).

    Every artifact kind shares one lookup path (:meth:`_lookup`): the
    in-memory map, then — for catalogs, cast fits and stats, when the store
    has a ``root`` — the disk tier under ``<root>/profiles/``, and only
    then the computation, whose fresh artifact is written to disk.
    ``key[0]`` names the artifact kind.  Keys are built from
    :mod:`repro.common.stable_hash` fingerprints only, so they double as
    cross-process content addresses: a fresh process on the same root
    warm-starts with zero profiling events.

    Parameters
    ----------
    root:
        Optional disk-tier root.  Several processes may share one root —
        writes are atomic and content-addressed, so concurrent writers of
        one key produce byte-identical files; unreadable, stale-format and
        wrong-key files, and failed writes, only cost a re-profile (see
        :class:`~repro.common.jsondir.JsonDir`).
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.stats = SessionStats()
        self._memo: dict[tuple, Any] = {}
        #: The disk tier (``None``: memory only).
        self.disk = (
            None
            if root is None
            else JsonDir(Path(root) / "profiles", PROFILE_FORMAT, "*.json")
        )

    def _path(self, key: tuple) -> Path:
        """Content address of one store key on the disk tier (strings and
        ints only, so the digest is stable across processes)."""
        return self.disk.root / f"{stable_digest(key)}.json"

    # The codecs are called through their module-global names so that a
    # tracer patching those globals sees every encode and decode.
    def _read(self, key: tuple, backend: LPBackend | None) -> Any:
        """The disk tier's artifact for ``key``; ``None`` on any defect."""
        doc = self.disk.read(self._path(key), key=list(key))
        payload = None if doc is None else doc.get("payload")
        artifact = None
        if isinstance(payload, dict):
            try:
                if key[0] == "catalog":
                    artifact = catalog_from_dict(payload)
                elif key[0] == "cast":
                    artifact = cast_calc_from_dict(payload, backend)
                else:
                    artifact = stats_from_dict(payload)
            except (KeyError, TypeError, ValueError):
                artifact = None
        if artifact is None:
            self.stats.disk_misses += 1
        else:
            self.stats.disk_hits += 1
        return artifact

    def _write(self, key: tuple, artifact: Any) -> None:
        if key[0] == "catalog":
            payload = catalog_to_dict(artifact)
        elif key[0] == "cast":
            payload = cast_calc_to_dict(artifact)
        else:
            payload = stats_to_dict(artifact)
        doc = {"kind": key[0], "key": list(key), "payload": payload}
        self.disk.write(self._path(key), doc)

    def _lookup(
        self,
        key: tuple | None,
        compute: Callable[[], Any],
        backend: LPBackend | None = None,
    ) -> Any:
        """Memory → disk (persisted kinds only) → ``compute`` (written to
        disk), counting a hit or a computation under the key's kind.  The
        computation is counted before it runs, so one that raises still
        counts and stores nothing.  A ``None`` key (an opaque input)
        computes, counts nothing and stores nothing.  ``backend`` rebinds a
        cast fit read from disk to a live measurement backend.

        The only writer of ``_memo``: every kind is stored here."""
        if key is None:
            return compute()
        persisted = self.disk is not None and key[0] in _PERSISTED
        artifact = self._memo.get(key)
        if artifact is None and persisted:
            artifact = self._read(key, backend)
        hit = artifact is not None
        counters = _COUNTERS.get(key[0])
        if counters is not None:
            name = counters[0 if hit else 1]
            setattr(self.stats, name, getattr(self.stats, name) + 1)
        if not hit:
            artifact = compute()
            if persisted:
                self._write(key, artifact)
        self._memo[key] = artifact
        return artifact

    def catalog_for(
        self,
        dag: PrecisionDAG,
        backend: LPBackend,
        repeats: int,
        *,
        fingerprint: str,
        backend_fp: str,
    ) -> OperatorCostCatalog:
        """``fingerprint`` is ``profiling_fingerprint(dag)`` and
        ``backend_fp`` is ``backend_fingerprint(backend)``, which the caller
        holds already (see :meth:`copy_fingerprint`)."""
        key = ("catalog", fingerprint, backend_fp, int(repeats))
        return self._lookup(
            key, lambda: profile_operator_costs(dag, backend, repeats=repeats)
        )

    def cast_calc_for(
        self, backend: LPBackend, *, backend_fp: str
    ) -> CastCostCalculator:
        """``backend_fp`` is ``backend_fingerprint(backend)``."""
        key = ("cast", backend_fp)
        return self._lookup(key, lambda: CastCostCalculator(backend), backend)

    def stats_for(
        self, template: PrecisionDAG, seed: int
    ) -> dict[str, OperatorStats]:
        key = ("stats", template.structure_fingerprint(), int(seed))
        return self._lookup(key, lambda: synthesize_stats(template, seed=seed))

    def template_for(
        self, key: tuple | None, build: Callable[[], PrecisionDAG]
    ) -> PrecisionDAG:
        """Cached template when ``key`` identifies the recipe (string-named
        models); opaque builders/DAG instances (``key is None``) bypass the
        cache."""
        return self._lookup(None if key is None else ("template", key), build)

    def copy_fingerprint(self, key: tuple | None, copy: PrecisionDAG) -> str:
        """:func:`profiling_fingerprint` of ``copy``, a fresh copy of the
        template :meth:`template_for` serves under ``key``.

        Every copy of one template digests alike, though not always like
        the template itself (``copy()`` relists predecessors in insertion
        order), so the digest of the first copy is held next to the cached
        template, which is immutable by contract.  Opaque templates
        (``key is None``) are digested every call."""
        return self._lookup(
            None if key is None else ("template_fingerprint", key),
            lambda: profiling_fingerprint(copy),
        )

    def start_for(
        self, key: tuple | None, search: Callable[[], tuple]
    ) -> tuple:
        """A device type's allocation start under ``key`` (see
        ``repro.session.session._start_key``): the ``(T_min plan, initial
        plan)`` pair the allocator's ``search`` finds.  The allocator copies
        a start before mutating it."""
        return self._lookup(None if key is None else ("start", *key), search)

    def prices_for(self, key: tuple | None) -> dict[tuple, OpPrice]:
        """A device type's price memo under ``key`` (see
        ``repro.session.session._price_key``): the dict every
        :class:`~repro.core.cost_mapper.CostMapper` over a copy of the
        keyed template, with the keyed catalog and cast model, reads and
        fills.  Its entries are determined by their own keys, so the memo
        only grows, by the distinct price contexts the session visits.
        Opaque models (``key is None``) get a fresh private dict."""
        return self._lookup(None if key is None else ("prices", *key), dict)

    def random_indicator_for(
        self, key: tuple | None, dag: PrecisionDAG, seed: int
    ) -> RandomIndicator:
        """The random baseline's indicator over the adjustable ops of
        ``dag``, a copy of the template :meth:`template_for` serves under
        ``key``: drawn once per (template key, seed), read-only after.
        Opaque templates (``key is None``) draw every call."""
        return self._lookup(
            None if key is None else ("random_indicator", key, int(seed)),
            lambda: RandomIndicator(list(dag.adjustable_ops()), seed=seed),
        )
