"""Plan-serving subsystem tests (PR 9).

Pins the service-layer contracts:

* **parity oracle** — a service-mediated plan is bit-identical to a direct
  ``PlanSession.plan()`` of the same request, in memory and through the
  persistent store, warm and cold-process;
* **coalescing** — identical in-flight requests share one computation and
  one outcome object (white-box deterministic test + threaded stress);
  exactly one profiling pass happens per distinct catalog key no matter
  how many threads race;
* **misses, never errors** — corrupted / truncated / stale-format /
  wrong-key disk artifacts degrade to recomputation with correct results;
* **cross-process keys** — on-disk filenames and request fingerprints are
  invariant under ``PYTHONHASHSEED`` (subprocess probe).
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.engine import Perturbation
from repro.hardware import DeviceSpec, make_cluster_a
from repro.hardware.cluster import Cluster, Worker
from repro.service import PlanService, plan_many, request_fingerprint
from repro.service.service import _InFlight
from repro.session import PlanRequest, PlanSession
from repro.session.profiles import PROFILE_FORMAT, ProfileStore

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Small, fast request shared by most tests: 1 V100 + 1 T4 (two distinct
#: device types), mini graph, single profiling repeat.
CLUSTER = make_cluster_a(1, 1)


def small_request(**overrides) -> PlanRequest:
    kwargs = dict(
        model="mini_vgg",
        model_kwargs={"batch_size": 4},
        cluster=CLUSTER,
        profile_repeats=1,
    )
    kwargs.update(overrides)
    return PlanRequest(**kwargs)


def canon(outcome) -> tuple[str, str]:
    """Bit-exact identity of one outcome: the plan dict (deterministic
    serialization) and the simulated iteration time, bit-for-bit."""
    return (
        json.dumps(outcome.plan.to_dict(), sort_keys=True),
        outcome.simulation.iteration_time.hex(),
    )


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


def test_service_plan_matches_direct_session():
    request = small_request()
    direct = PlanSession().plan(request)
    served = PlanService().plan(request)
    assert canon(served) == canon(direct)


def test_persistent_roundtrip_is_bit_identical(tmp_path):
    request = small_request()
    direct = PlanSession().plan(request)

    first = PlanService(root=tmp_path)
    warm = first.plan(request)
    assert canon(warm) == canon(direct)
    assert first.stats.catalog_profiles == 2  # V100 + T4, once each
    assert first.stats.disk_misses > 0  # cold disk

    # Fresh service, same root: everything comes from disk, nothing is
    # re-profiled, and the results are bit-identical.
    second = PlanService(root=tmp_path)
    cold_process = second.plan(request)
    stats = second.stats
    assert stats.catalog_profiles == 0
    assert stats.cast_fits == 0
    assert stats.stats_syntheses == 0
    assert stats.disk_hits > 0
    assert stats.disk_misses == 0
    assert canon(cold_process) == canon(direct)


def test_replan_rides_through_the_service(tmp_path):
    from repro.common.units import GBPS
    from repro.hardware import T4, ClusterEvent

    request = small_request(cluster=make_cluster_a(1, 1))
    service = PlanService(root=tmp_path)
    service.plan(request)
    replan = service.replan(
        service.session.last_context,
        [ClusterEvent(0.0, "join", 9, device=T4, link_bandwidth=GBPS)],
    )
    assert replan.new_profile_events == 0  # T4 catalog already warm
    assert replan.outcome.plan is not None


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------


def test_identical_requests_have_equal_fingerprints():
    a = small_request()
    b = small_request()  # independently built, same content
    assert a is not b
    fp = request_fingerprint(a)
    assert fp is not None
    assert fp == request_fingerprint(b)
    assert request_fingerprint(small_request(seed=1)) != fp
    assert request_fingerprint(small_request(strategy="uniform")) != fp


#: Fields of PlanRequest that request_token deliberately leaves out, with
#: the reason.  Empty: every field changes what a request plans.
TOKEN_EXCLUDED: dict[str, str] = {}


def _token_alternatives() -> dict:
    """One valid non-default value per PlanRequest field."""
    from repro.backend.lp_backend import LPBackend
    from repro.core.allocator import AllocatorConfig
    from repro.engine import Perturbation
    from repro.quant.qsgd import CompressionConfig

    return {
        "model": "mini_bert",
        "model_kwargs": {"batch_size": 8},
        "cluster": "cluster_a_4+4",
        "strategy": "uniform",
        "loss": "mse",
        "batch_size": 8,
        "optimizer_slots": 2,
        "collective_model": "hierarchical",
        "schedule_policy": "blocking_sync",
        "perturbation": Perturbation(bandwidth_drift=0.1),
        "indicator": "hessian",
        "config": AllocatorConfig(amp_mode=True),
        "seed": 1,
        "profile_repeats": 2,
        "backends": {0: LPBackend(CLUSTER.workers[0].device, seed=3)},
        "stats": {},
        "compression": CompressionConfig(levels=(0, 1)),
    }


def test_request_token_covers_every_field():
    """Every PlanRequest field is encoded by request_token or named in
    TOKEN_EXCLUDED, so adding or removing a field cannot silently desync
    the coalescing identity from the request."""
    from repro.service.fingerprint import request_token

    names = {f.name for f in dataclasses.fields(PlanRequest)}
    alternatives = _token_alternatives()
    assert set(alternatives) | set(TOKEN_EXCLUDED) == names
    assert not set(alternatives) & set(TOKEN_EXCLUDED)
    base = request_token(small_request())
    for name, value in alternatives.items():
        request = small_request(**{name: value})
        assert request_token(request) != base, name
        # A field of a type the key rule cannot encode would silently turn
        # every request carrying it opaque (no coalescing, no disk keys).
        assert request_fingerprint(request) is not None, name


#: PlanRequest fields an allocation start's key reads: the model recipe
#: (DAG and block labels), the catalog's inputs and the memory model.
START_KEYED = (
    "model", "model_kwargs", "backends", "profile_repeats", "optimizer_slots",
)
#: Fields the start key leaves out: neither the T_min ladder nor the brute
#: force reads them (the cluster only through its devices, which the
#: backends measure; ``config.amp_mode`` only picks the searched types).
START_EXCLUDED = (
    "cluster", "strategy", "loss", "batch_size", "collective_model",
    "schedule_policy", "perturbation", "indicator", "config", "seed",
    "stats", "compression",
)


def _start_entries(session) -> dict:
    return {k: v for k, v in session.profiles._memo.items() if k[0] == "start"}


def test_start_key_sorts_every_field():
    names = {f.name for f in dataclasses.fields(PlanRequest)}
    assert set(START_KEYED) | set(START_EXCLUDED) == names
    assert not set(START_KEYED) & set(START_EXCLUDED)


@pytest.mark.parametrize("name", START_KEYED)
def test_keyed_fields_change_the_start_key(name):
    base = PlanSession().prepare(small_request()).start_keys
    changed = PlanSession().prepare(
        small_request(**{name: _token_alternatives()[name]})
    ).start_keys
    assert set(changed.values()) != set(base.values())


@pytest.fixture(scope="module")
def base_start_plan():
    session = PlanSession()
    outcome = session.plan(small_request())
    return outcome, _start_entries(session)


@pytest.mark.parametrize("name", START_EXCLUDED)
def test_left_out_fields_give_the_same_start(base_start_plan, name):
    """A cold plan that differs in a left-out field searches the same start
    under the same key.  ``strategy`` and ``stats`` take allocator-backed
    values: ``uniform`` runs no allocator, and the variance indicator
    cannot read empty stats."""
    from repro.profiling.stats import synthesize_stats

    value = {
        "strategy": "random",
        "stats": synthesize_stats(small_request().build_template(), seed=5),
    }.get(name, _token_alternatives()[name])
    base, base_entries = base_start_plan
    session = PlanSession()
    outcome = session.plan(small_request(**{name: value}))
    entries = _start_entries(session)
    assert base_entries and set(base_entries) <= set(entries)
    assert all(entries[k] == v for k, v in base_entries.items())
    if len(entries) == len(base_entries):
        assert (
            outcome.report.allocation.initial_counts
            == base.report.allocation.initial_counts
        )


def test_start_key_ignores_the_worker_count():
    session = PlanSession()
    session.plan(small_request(cluster="cluster_a_4+4"))
    session.plan(small_request(cluster="cluster_a_2x8+2x8"))
    assert session.stats.start_searches == session.stats.start_hits == 1
    assert len(_start_entries(session)) == 1


def test_opaque_model_stores_no_start():
    session = PlanSession()
    session.plan(small_request(**_opaque_overrides("builder")))
    assert _start_entries(session) == {}
    assert session.stats.start_searches == session.stats.start_hits == 0


def _opaque_overrides(case: str) -> dict:
    """One request member per kind the key rule must leave opaque."""
    from repro.engine.policy import BlockingSyncPolicy
    from repro.models import mini_model_graph
    from repro.parallel.comm_model import HierarchicalModel
    from repro.profiling.stats import synthesize_stats

    def build():
        return mini_model_graph("mini_vgg", batch_size=4)

    return {
        "builder": lambda: {"model": build, "model_kwargs": {}},
        "dag": lambda: {"model": build(), "model_kwargs": {}},
        "collective_model": lambda: {"collective_model": HierarchicalModel()},
        "schedule_policy": lambda: {"schedule_policy": BlockingSyncPolicy()},
        "stats": lambda: {"stats": synthesize_stats(build(), seed=0)},
    }[case]()


@pytest.mark.parametrize(
    "case", ["builder", "dag", "collective_model", "schedule_policy", "stats"]
)
def test_opaque_requests_do_not_coalesce(case):
    opaque = small_request(**_opaque_overrides(case))
    assert request_fingerprint(opaque) is None
    # ... but they are still served correctly.
    outcome = PlanService().plan(opaque)
    assert canon(outcome) == canon(PlanSession().plan(opaque))


@dataclasses.dataclass(frozen=True)
class _TaggedPerturbation(Perturbation):
    tag: str = "a"


@dataclasses.dataclass(frozen=True)
class _TaggedDevice(DeviceSpec):
    tag: str = "a"


def _tagged_cluster(tag: str) -> Cluster:
    workers = tuple(
        Worker(
            w.rank,
            _TaggedDevice(
                **{f.name: getattr(w.device, f.name)
                   for f in dataclasses.fields(DeviceSpec)},
                tag=tag,
            ),
            w.link_bandwidth,
        )
        for w in CLUSTER.workers
    )
    return Cluster(CLUSTER.name, workers, CLUSTER.collective_latency)


@pytest.mark.parametrize(
    "overrides",
    [
        lambda tag: {"perturbation": _TaggedPerturbation(tag=tag)},
        lambda tag: {"cluster": _tagged_cluster(tag)},
    ],
    ids=["perturbation_subclass", "device_subclass_in_cluster"],
)
def test_subclass_fields_do_not_alias(overrides):
    """A field added by a frozen subclass is part of the content key: two
    requests differing only there must never coalesce."""
    a = request_fingerprint(small_request(**overrides("a")))
    b = request_fingerprint(small_request(**overrides("b")))
    assert a is not None and b is not None
    assert a != b


def test_allocator_config_is_frozen():
    """A config cannot change meaning after its request was fingerprinted."""
    from repro.core.allocator import AllocatorConfig

    config = AllocatorConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.amp_mode = True


def test_coalesced_followers_share_the_leader_outcome():
    """White-box determinism: with an in-flight entry pre-registered, every
    arriving identical request coalesces onto it — no timing window."""
    service = PlanService()
    request = small_request()
    fp = request_fingerprint(request)
    entry = _InFlight()
    service._inflight[fp] = entry

    results = [None] * 4
    threads = [
        threading.Thread(
            target=lambda i=i: results.__setitem__(i, service.plan(request))
        )
        for i in range(4)
    ]
    for t in threads:
        t.start()
    while service.stats.coalesced_requests < 4:  # all four joined
        threading.Event().wait(0.001)
    sentinel = PlanSession().plan(request)
    entry.outcome = sentinel
    del service._inflight[fp]
    entry.event.set()
    for t in threads:
        t.join()
    assert all(r is sentinel for r in results)  # the SAME object
    assert service.stats.plan_calls == 0  # nobody planned


def test_coalesced_followers_get_the_leader_error():
    service = PlanService()
    request = small_request()
    fp = request_fingerprint(request)
    entry = _InFlight()
    service._inflight[fp] = entry

    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(pytest.raises(RuntimeError, service.plan, request))
    )
    thread.start()
    while service.stats.coalesced_requests < 1:
        threading.Event().wait(0.001)
    entry.error = RuntimeError("leader failed")
    del service._inflight[fp]
    entry.event.set()
    thread.join()
    assert len(seen) == 1


def test_concurrent_stress_profiles_each_catalog_key_once():
    """N threads racing identical + distinct requests: exactly one
    profiling pass per distinct (DAG, device-type) catalog key, and every
    outcome bit-identical to its serial reference."""
    shared = small_request()
    distinct = small_request(model="mini_vggbn")
    serial = {
        "shared": canon(PlanSession().plan(shared)),
        "distinct": canon(PlanSession().plan(distinct)),
    }

    service = PlanService()
    results: list = [None] * 12
    def worker(i):
        request = shared if i % 2 == 0 else distinct
        results[i] = (("shared" if i % 2 == 0 else "distinct"),
                      service.plan(request))
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for label, outcome in results:
        assert canon(outcome) == serial[label]
    # 2 models x 2 device types = 4 catalog keys; 2 backends' cast fits.
    stats = service.stats
    assert stats.catalog_profiles == 4
    assert stats.cast_fits == 2
    assert stats.plan_calls + stats.coalesced_requests == 12


# ---------------------------------------------------------------------------
# plan_many
# ---------------------------------------------------------------------------


def test_plan_many_dedupes_and_preserves_order():
    a = small_request()
    b = small_request(strategy="uniform")
    service = PlanService()
    outcomes = service.plan_many([a, b, small_request(), a])
    assert outcomes[0] is outcomes[2] is outcomes[3]  # identical content
    assert outcomes[1] is not outcomes[0]
    assert service.stats.plan_calls == 2  # two distinct requests
    assert service.stats.coalesced_requests == 2
    assert canon(outcomes[1]) == canon(PlanSession().plan(b))


def test_plan_many_groups_amortize_profiling():
    # Interleaved models: the content-keyed store profiles each catalog
    # key once, whatever the batch order.
    a, b = small_request(), small_request(model="mini_vggbn")
    service = PlanService()
    outcomes = service.plan_many(
        [a, b, small_request(seed=1), small_request(model="mini_vggbn", seed=1)]
    )
    assert service.stats.catalog_profiles == 4  # 2 models x 2 device types
    assert len(outcomes) == 4 and all(o is not None for o in outcomes)


def test_module_level_plan_many(tmp_path):
    outcomes = plan_many([small_request()], root=tmp_path)
    assert canon(outcomes[0]) == canon(PlanSession().plan(small_request()))
    assert len(ProfileStore(tmp_path).disk.entries()) > 0


def test_plain_session_persists_profiles(tmp_path):
    request = small_request()
    PlanSession(profiles=ProfileStore(tmp_path)).plan(request)
    fresh = PlanSession(profiles=ProfileStore(tmp_path))
    assert canon(fresh.plan(request)) == canon(PlanSession().plan(request))
    assert fresh.stats.profile_events == 0
    assert fresh.stats.disk_misses == 0


def test_root_and_session_are_mutually_exclusive(tmp_path):
    with pytest.raises(ValueError):
        PlanService(root=tmp_path, session=PlanSession())


# ---------------------------------------------------------------------------
# disk defects degrade to misses
# ---------------------------------------------------------------------------


def _poison(path: Path, how: str) -> None:
    if how == "truncated":
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
    elif how == "garbage":
        path.write_bytes(b"\x00\xff not json \xfe")
    elif how == "stale_format":
        doc = json.loads(path.read_text())
        doc["format"] = PROFILE_FORMAT + 1
        path.write_text(json.dumps(doc))
    elif how == "wrong_key":
        doc = json.loads(path.read_text())
        doc["key"] = ["catalog", "somebody", "else", 1]
        path.write_text(json.dumps(doc))
    elif how == "payload_shape":
        doc = json.loads(path.read_text())
        doc["payload"] = {"costs": "not-a-list"}
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "how", ["truncated", "garbage", "stale_format", "wrong_key", "payload_shape"]
)
def test_defective_artifacts_are_misses_not_errors(tmp_path, how):
    request = small_request()
    reference = canon(PlanSession().plan(request))
    warm = PlanService(root=tmp_path)
    warm.plan(request)
    store = warm.session.profiles.disk
    assert len(store.entries()) > 0
    for path in store.entries():
        _poison(path, how)

    service = PlanService(root=tmp_path)
    outcome = service.plan(request)
    assert canon(outcome) == reference  # recomputed, still exact
    stats = service.stats
    assert stats.disk_hits == 0
    assert stats.disk_misses > 0
    assert stats.catalog_profiles == 2  # paid the re-profile, no more


def test_unwritable_root_still_plans(tmp_path, monkeypatch):
    # A failing write is a silent no-op (cache, not a database) that
    # leaves no partial behind.
    service = PlanService(root=tmp_path)
    monkeypatch.setattr(os, "replace", lambda *a: (_ for _ in ()).throw(OSError()))
    outcome = service.plan(small_request())
    assert outcome.plan is not None
    assert len(service.session.profiles.disk.entries()) == 0
    assert list(tmp_path.rglob("*.tmp.*")) == []


def test_clear_removes_artifacts(tmp_path):
    service = PlanService(root=tmp_path)
    service.plan(small_request())
    store = service.session.profiles.disk
    n = len(store)
    assert n > 0
    assert store.clear() == n
    assert len(store) == 0


# ---------------------------------------------------------------------------
# cross-process key stability
# ---------------------------------------------------------------------------

_PROBE = r"""
import json, sys, tempfile
from repro.hardware import make_cluster_a
from repro.service import PlanService, cluster_fingerprint, request_fingerprint
from repro.session import PlanRequest

cluster = make_cluster_a(1, 1)
request = PlanRequest(
    model="mini_vgg", model_kwargs={"batch_size": 4},
    cluster=cluster, profile_repeats=1, seed=7,
)
with tempfile.TemporaryDirectory() as root:
    service = PlanService(root=root)
    service.plan(request)
    names = [p.name for p in service.session.profiles.disk.entries()]
print(json.dumps({
    "request_fingerprint": request_fingerprint(request),
    "cluster_fingerprint": cluster_fingerprint(cluster),
    "artifact_names": names,
}))
"""


def _probe(hashseed: int) -> dict:
    env = os.environ.copy()
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_disk_keys_and_fingerprints_survive_hash_seed():
    a = _probe(0)
    b = _probe(4242)
    assert a["request_fingerprint"] == b["request_fingerprint"]
    assert a["cluster_fingerprint"] == b["cluster_fingerprint"]
    assert a["artifact_names"] == b["artifact_names"]
    assert len(a["artifact_names"]) >= 5  # 2 catalogs + 2 casts + stats
