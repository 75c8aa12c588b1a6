"""Tests for the PlanSession API: requests, registry, reuse, compare."""

import dataclasses

import pytest

from repro.backend import LPBackend
from repro.baselines import RandomIndicator
from repro.common.dtypes import Precision
from repro.common.errors import InfeasiblePlanError
from repro.core.allocator import AllocatorConfig
from repro.core.cost_mapper import CostMapper
from repro.core.dfg import OpPrice
from repro.core.plan import PrecisionPlan
from repro.core.replayer import SimulationResult
from repro.common.units import GBPS
from repro.graph.dag import PrecisionDAG
from repro.hardware import T4, V100, ClusterEvent, make_cluster_a
from repro.hardware.cluster import Cluster, Worker
from repro.models import mini_model_graph
from repro.session import (
    PlanOutcome,
    PlanRequest,
    PlanSession,
    QSyncReport,
    available_model_names,
    available_strategies,
    get_planner,
)
from repro.session import profiles as profiles_module
from repro.session import session as session_module
from repro.session.profiles import profiling_fingerprint

ALL_STRATEGIES = ("qsync", "uniform", "dpro", "hessian", "random", "qsync+qsgd")
_MINI_BERT = {"batch_size": 4, "width_scale": 8, "spatial_scale": 4}


def tiny_request(**overrides):
    defaults = dict(
        model="mini_vgg",
        model_kwargs={"batch_size": 4},
        cluster=make_cluster_a(1, 1),
        strategy="uniform",
        profile_repeats=1,
    )
    defaults.update(overrides)
    return PlanRequest(**defaults)


class TestRegistry:
    def test_all_baseline_strategies_registered(self):
        assert set(available_strategies()) == set(ALL_STRATEGIES)

    def test_registration_order_is_canonical(self):
        assert available_strategies() == ALL_STRATEGIES

    def test_unknown_strategy_raises_listing_available(self):
        with pytest.raises(ValueError, match="uniform"):
            get_planner("nope")
        with pytest.raises(ValueError, match="qsync"):
            PlanSession().plan(tiny_request(strategy="annealing"))

    def test_unknown_strategy_fails_before_any_profiling(self):
        session = PlanSession()
        with pytest.raises(ValueError):
            session.plan(tiny_request(strategy="annealing"))
        assert session.stats.profile_events == 0


class TestRequestValidation:
    def test_unknown_model_lists_available(self):
        with pytest.raises(ValueError, match="mini_bert"):
            PlanSession().prepare(tiny_request(model="resnet9000"))

    def test_unknown_cluster_preset(self):
        with pytest.raises(ValueError, match="cluster_a_4\\+4"):
            tiny_request(cluster="cluster_z")

    def test_unknown_indicator_name(self):
        with pytest.raises(ValueError, match="variance"):
            tiny_request(indicator="entropy")

    def test_non_name_indicator_rejected_before_profiling(self):
        session = PlanSession()
        for bad in (5, lambda dag, stats, gamma: None):
            with pytest.raises(ValueError, match="indicator"):
                session.plan(tiny_request(strategy="qsync", indicator=bad))
        assert session.stats.profile_events == 0

    def test_model_kwargs_rejected_for_builders_and_dags(self):
        builder = lambda: mini_model_graph("mini_vgg", batch_size=4)
        for model in (builder, builder()):
            with pytest.raises(ValueError, match="model_kwargs"):
                tiny_request(model=model, model_kwargs={"batch_size": 4})
            tiny_request(model=model, model_kwargs={})  # empty is fine

    def test_profile_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="profile_repeats"):
            tiny_request(profile_repeats=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected_at_construction(self, seed):
        with pytest.raises(ValueError, match="seed"):
            tiny_request(seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_profile_seed_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match="profile_seed"):
            PlanSession(profile_seed=seed)

    def test_unknown_loss_rejected_at_construction(self):
        with pytest.raises(ValueError, match="loss"):
            tiny_request(loss="mae")

    def test_unknown_collective_model_rejected_at_construction(self):
        with pytest.raises(ValueError, match="hierarchical"):
            tiny_request(collective_model="ringg")

    def test_pinned_strategy_rejects_conflicting_indicator(self):
        session = PlanSession()
        with pytest.raises(ValueError, match="pins indicator"):
            session.plan(tiny_request(strategy="random", indicator="variance"))
        assert session.stats.profile_events == 0  # failed before profiling
        # The matching indicator (and None) are fine.
        session.plan(tiny_request(strategy="random", indicator="random"))

    def test_model_names_cover_catalog_and_minis(self):
        names = available_model_names()
        assert "vgg16" in names and "mini_bert" in names

    def test_model_forms_agree(self):
        """Name, builder, and DAG-instance model specs plan identically."""
        session = PlanSession()
        by_name = session.plan(tiny_request())
        builder = lambda: mini_model_graph("mini_vgg", batch_size=4)
        by_builder = session.plan(tiny_request(model=builder, model_kwargs={}))
        by_dag = session.plan(tiny_request(model=builder(), model_kwargs={}))
        assert by_name.simulation == by_builder.simulation == by_dag.simulation
        assert by_name.plan == by_builder.plan == by_dag.plan

    def test_cluster_preset_by_name(self):
        request = tiny_request(cluster="cluster_a_4+4")
        ctx = PlanSession().prepare(request)
        assert ctx.cluster.size == 8

    def test_partial_backends_fill_and_validate(self):
        cluster = make_cluster_a(1, 1)
        # Rank 0 override only: missing ranks get defaults.
        ctx = PlanSession().prepare(
            tiny_request(cluster=cluster, backends={0: LPBackend(V100, seed=0)})
        )
        assert sorted(ctx.backends) == [0, 1]
        # Wrong device for the rank: loud error, not a wrong catalog.
        with pytest.raises(ValueError, match="V100"):
            PlanSession().prepare(
                tiny_request(cluster=cluster, backends={0: LPBackend(T4, seed=0)})
            )
        # A same-named device with another spec: the catalog would measure
        # the backend's device while memory is checked against the rank's.
        half_t4 = dataclasses.replace(T4, memory_bytes=T4.memory_bytes // 2)
        workers = tuple(
            dataclasses.replace(w, device=half_t4) if w.rank == 1 else w
            for w in cluster.workers
        )
        with pytest.raises(ValueError, match="every field"):
            PlanSession().prepare(
                tiny_request(
                    cluster=Cluster(cluster.name, workers),
                    backends={1: LPBackend(T4, seed=0)},
                )
            )
        # Stray rank: loud error, not a silent ignore.
        with pytest.raises(ValueError, match="ranks"):
            PlanSession().prepare(
                tiny_request(cluster=cluster, backends={7: LPBackend(T4, seed=0)})
            )

    def test_builder_model_accepts_partial_backends(self):
        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph("mini_vgg", batch_size=4)
        ctx = PlanSession().prepare(
            tiny_request(
                model=builder, model_kwargs={}, cluster=cluster,
                backends={0: LPBackend(V100, seed=0)},
            )
        )
        assert sorted(ctx.backends) == [0, 1]
        assert ctx.backends[1].device.name == "T4"
        assert ctx.replayer.simulate().iteration_time > 0

    def test_same_type_backend_override_must_match_its_type(self):
        """Rank 3's noisier backend used to be silently ignored: it was
        priced with rank 2's catalog and the plan did not change."""
        with pytest.raises(ValueError, match="ranks 2 and 3"):
            PlanSession().prepare(
                tiny_request(
                    cluster=make_cluster_a(2, 2),
                    backends={3: LPBackend(T4, measurement_noise=0.3)},
                )
            )

    def test_same_named_devices_must_measure_alike(self):
        """A partially loaned T4 is still named "T4": both ranks used to be
        priced with one catalog and got identical per-device compute."""
        cluster = Cluster(
            name="t4_and_shared_t4",
            workers=(
                Worker(rank=0, device=V100, link_bandwidth=32 * GBPS),
                Worker(rank=1, device=T4, link_bandwidth=8 * GBPS),
                Worker(
                    rank=2, device=T4.with_sharing(0.3, 0.5),
                    link_bandwidth=8 * GBPS,
                ),
            ),
        )
        with pytest.raises(ValueError, match="ranks 1 and 2"):
            PlanSession().prepare(tiny_request(cluster=cluster))


class TestPrepare:
    def test_one_dag_copy_per_device_type(self, monkeypatch):
        copies = []
        original = PrecisionDAG.copy

        def counting_copy(dag):
            copies.append(dag)
            return original(dag)

        monkeypatch.setattr(PrecisionDAG, "copy", counting_copy)
        ctx = PlanSession().prepare(tiny_request(cluster=make_cluster_a(2, 2)))
        assert len(copies) == 2
        dags = ctx.replayer.dags
        assert dags[0] is dags[1] and dags[2] is dags[3]
        assert dags[0] is not dags[2]
        assert len(ctx.replayer.groups) == 2


class TestProfilingReuse:
    def test_second_plan_profiles_nothing(self):
        session = PlanSession()
        session.plan(tiny_request())
        cold = session.stats.profile_events
        assert cold > 0
        session.plan(tiny_request(strategy="dpro"))
        session.plan(tiny_request(collective_model="hierarchical"))
        assert session.stats.profile_events == cold

    def test_profiler_not_invoked_on_warm_session(self, monkeypatch):
        session = PlanSession()
        session.plan(tiny_request())

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("warm session re-profiled a catalog")

        monkeypatch.setattr(
            "repro.session.profiles.profile_operator_costs", boom
        )
        monkeypatch.setattr(
            "repro.session.profiles.CastCostCalculator", boom
        )
        outcome = session.plan(tiny_request(strategy="dpro"))
        assert outcome.simulation.iteration_time > 0

    def test_different_repeats_reprofile(self):
        session = PlanSession()
        session.plan(tiny_request(profile_repeats=1))
        cold = session.stats.catalog_profiles
        session.plan(tiny_request(profile_repeats=2))
        assert session.stats.catalog_profiles > cold

    def test_template_and_stats_cached_for_named_models(self):
        session = PlanSession()
        session.plan(tiny_request(strategy="qsync"))
        session.plan(tiny_request(strategy="random"))
        assert session.stats.template_builds == 1
        assert session.stats.template_hits >= 1
        assert session.stats.stats_syntheses == 1

    def test_copies_of_one_template_digest_alike(self):
        """A copy need not digest like its template (``copy()`` relists
        predecessors; mini_bert's differs), but every copy of one template
        digests alike, so one digest keys every device type's catalog —
        the same bytes a per-copy digest gave."""
        request = tiny_request(model="mini_bert", model_kwargs=_MINI_BERT)
        template = request.build_template()
        first, second = template.copy(), template.copy()
        assert profiling_fingerprint(first) == profiling_fingerprint(second)
        assert profiling_fingerprint(first) != profiling_fingerprint(template)
        session = PlanSession()
        session.prepare(dataclasses.replace(
            request, cluster=make_cluster_a(2, 2)
        ))
        assert session.profiles.copy_fingerprint(
            request.model_cache_key(), first
        ) == profiling_fingerprint(first)
        catalog_digests = {
            key[1] for key in session.profiles._memo if key[0] == "catalog"
        }
        assert catalog_digests == {profiling_fingerprint(first)}

    def test_warm_plan_computes_no_fingerprint(self, monkeypatch):
        request = tiny_request(
            model="mini_bert", model_kwargs=_MINI_BERT,
            cluster=make_cluster_a(2, 2), strategy="qsync",
        )
        session = PlanSession()
        cold = session.plan(request)

        def boom(dag):  # pragma: no cover - failure path
            raise AssertionError("warm plan fingerprinted a DAG")

        monkeypatch.setattr("repro.session.profiles.profiling_fingerprint", boom)
        warm = session.plan(request)
        assert warm.plan == cold.plan
        assert warm.simulation == cold.simulation

    def test_opaque_template_digested_once_per_prepare(self, monkeypatch):
        calls = []
        original = profiles_module.profiling_fingerprint

        def counting(dag):
            calls.append(dag)
            return original(dag)

        monkeypatch.setattr(profiles_module, "profiling_fingerprint", counting)
        request = tiny_request(
            model=lambda: mini_model_graph("mini_bert", **_MINI_BERT),
            model_kwargs={}, cluster=make_cluster_a(2, 2),
        )
        session = PlanSession()
        session.prepare(request)
        session.prepare(request)
        assert len(calls) == 2

    def test_reuse_is_invisible_in_results(self):
        warm_session = PlanSession()
        warm_session.plan(tiny_request())
        warm = warm_session.plan(tiny_request(strategy="dpro"))
        cold = PlanSession().plan(tiny_request(strategy="dpro"))
        assert warm.simulation == cold.simulation
        assert warm.plan == cold.plan


class TestCompare:
    @pytest.fixture(scope="class")
    def comparison(self):
        session = PlanSession()
        return session, session.compare(tiny_request())

    def test_all_strategies_present_in_canonical_order(self, comparison):
        _, table = comparison
        assert tuple(table) == ALL_STRATEGIES

    def test_common_outcome_shape(self, comparison):
        _, table = comparison
        for name, outcome in table.items():
            assert isinstance(outcome, PlanOutcome)
            assert outcome.strategy == name
            assert isinstance(outcome.plan, PrecisionPlan)
            assert isinstance(outcome.simulation, SimulationResult)
            assert isinstance(outcome.report, QSyncReport)
            assert outcome.simulation.iteration_time > 0
            assert name in outcome.summary() or outcome.summary()

    def test_ordering_deterministic_across_sessions(self, comparison):
        _, table = comparison
        again = PlanSession().compare(tiny_request())
        assert list(again) == list(table)

    def test_explicit_subset_preserves_given_order(self):
        table = PlanSession().compare(
            tiny_request(), strategies=("dpro", "uniform")
        )
        assert list(table) == ["dpro", "uniform"]

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PlanSession().compare(
                tiny_request(), strategies=("dpro", "dpro")
            )

    def test_unknown_strategy_validated_before_running_any(self):
        session = PlanSession()
        with pytest.raises(ValueError, match="unknown planner"):
            session.compare(tiny_request(), strategies=("uniform", "nope"))
        assert session.stats.plan_calls == 0

    def test_compare_profiles_once(self):
        session = PlanSession()
        session.compare(tiny_request(), strategies=("uniform", "dpro", "random"))
        assert session.stats.catalog_profiles == 2  # one per device type
        assert session.stats.cast_fits == 2


def _outcome_bits(outcome):
    """Everything a hit must reproduce bit for bit: the plan dict, the
    iteration time, every AllocationReport field (``repr`` keeps float bits
    and dict order) and the compression report."""
    alloc = outcome.report.allocation
    compression = outcome.compression
    return (
        outcome.plan.to_dict(),
        outcome.simulation.iteration_time.hex(),
        [(f.name, repr(getattr(alloc, f.name))) for f in dataclasses.fields(alloc)],
        None if compression is None else repr(dataclasses.asdict(compression)),
    )


def _start_request(**overrides):
    return tiny_request(
        **{"model": "mini_bert", "model_kwargs": _MINI_BERT, "strategy": "qsync",
           **overrides}
    )


ALLOCATOR_STRATEGIES = ("qsync", "qsync+qsgd", "hessian", "random")


class TestAllocationStarts:
    """A device type's allocation start (its ``T_min`` plan and brute-force
    initial plan) is searched once per session and reused by every what-if
    on the same hardware; a reused start must be invisible in results."""

    @pytest.fixture(scope="class")
    def warm_sessions(self):
        """Per amp mode, a session whose store already holds the starts."""
        sessions = {}
        for amp in (False, True):
            session = PlanSession()
            session.plan(_start_request(config=AllocatorConfig(amp_mode=amp)))
            sessions[amp] = session
        return sessions

    @pytest.mark.parametrize("amp", [False, True], ids=["amp_off", "amp_on"])
    @pytest.mark.parametrize("collective", [None, "hierarchical"])
    @pytest.mark.parametrize("strategy", ALLOCATOR_STRATEGIES)
    def test_hit_equals_cold_plan(self, warm_sessions, strategy, collective, amp):
        request = _start_request(
            strategy=strategy, collective_model=collective,
            config=AllocatorConfig(amp_mode=amp),
        )
        session = warm_sessions[amp]
        searches = session.stats.start_searches
        hits = session.stats.start_hits
        warm = session.plan(request)
        assert session.stats.start_searches == searches
        assert session.stats.start_hits == hits + (2 if amp else 1)
        assert _outcome_bits(warm) == _outcome_bits(PlanSession().plan(request))

    @pytest.mark.parametrize("events", [
        (ClusterEvent(0.0, "leave", 3),),
        (ClusterEvent(0.0, "degrade", 2, factor=1.5),),
    ], ids=["leave", "degrade"])
    def test_replan_hit_equals_cold_replan(self, events):
        request = _start_request(cluster=make_cluster_a(2, 2))
        session = PlanSession()
        session.plan(request)
        searches = session.stats.start_searches
        warm = session.replan(session.last_context, events)
        assert session.stats.start_searches == searches
        assert session.stats.start_hits == 1
        cold = PlanSession().replan(request, events)
        assert _outcome_bits(warm.outcome) == _outcome_bits(cold.outcome)

    @pytest.mark.parametrize("amp", [False, True])
    def test_compare_searches_each_type_once(self, amp):
        session = PlanSession()
        session.compare(
            _start_request(config=AllocatorConfig(amp_mode=amp)),
            strategies=ALLOCATOR_STRATEGIES,
        )
        types = 2 if amp else 1
        assert session.stats.start_searches == types
        assert session.stats.start_hits == 3 * types

    def test_passive_strategies_touch_no_start(self):
        session = PlanSession()
        session.compare(_start_request(), strategies=("uniform", "dpro"))
        assert session.stats.start_searches == session.stats.start_hits == 0

    def test_infeasible_search_is_never_stored(self):
        tiny_t4 = dataclasses.replace(T4, memory_bytes=1)
        cluster = Cluster(
            name="tiny-t4",
            workers=(Worker(0, V100, 300 * GBPS), Worker(1, tiny_t4, 32 * GBPS)),
        )
        session = PlanSession()
        for _ in range(2):
            with pytest.raises(InfeasiblePlanError):
                session.plan(_start_request(cluster=cluster))
        assert session.stats.start_searches == 2
        assert session.stats.start_hits == 0
        assert not [k for k in session.profiles._memo if k[0] == "start"]

    def test_one_backend_digest_per_type_per_prepare(self, monkeypatch):
        calls = []
        original = profiles_module.backend_fingerprint

        def counting(backend):
            calls.append(backend)
            return original(backend)

        monkeypatch.setattr(profiles_module, "backend_fingerprint", counting)
        monkeypatch.setattr(session_module, "backend_fingerprint", counting)
        session = PlanSession()
        session.prepare(_start_request(cluster=make_cluster_a(2, 2)))
        assert len(calls) == 2
        session.prepare(_start_request(cluster=make_cluster_a(2, 2)))
        assert len(calls) == 4


def _price_memos(session) -> dict:
    return {k: v for k, v in session.profiles._memo.items() if k[0] == "prices"}


class TestSessionPriceMemo:
    """Each device type's price memo lives in the session's store, so every
    replayer the session builds for one recipe reads and fills one dict; a
    shared price must be invisible in results."""

    def test_recipes_differing_only_in_kwargs_keep_apart(self):
        """mini_bert at batch 8 and 16 names the same ops; planned in one
        session, each must price like a fresh session."""
        requests = [
            _start_request(model_kwargs={**_MINI_BERT, "batch_size": batch})
            for batch in (8, 16)
        ]
        session = PlanSession()
        warm = [session.plan(request) for request in requests]
        assert len(_price_memos(session)) == 2 * 2  # recipes x device types
        for request, outcome in zip(requests, warm):
            cold = PlanSession().plan(request)
            assert outcome.plan.to_dict() == cold.plan.to_dict()
            assert (
                outcome.simulation.iteration_time.hex()
                == cold.simulation.iteration_time.hex()
            )

    def test_warm_plan_prices_nothing_afresh(self, monkeypatch):
        calls = []
        original = CostMapper._price_fresh

        def counting(self, *args):
            calls.append(args[0])
            return original(self, *args)

        monkeypatch.setattr(CostMapper, "_price_fresh", counting)
        session = PlanSession()
        first = session.plan(_start_request())
        assert calls
        calls.clear()
        second = session.plan(_start_request())
        assert calls == []
        assert _outcome_bits(second) == _outcome_bits(first)

    def test_from_scratch_paths_never_read_the_memo(self):
        """Poison every memoized price: the incremental path serves the
        poison (so the memo is live), the from-scratch paths do not."""
        request = _start_request()
        session = PlanSession()
        session.plan(request)
        for memo in _price_memos(session).values():
            for key in memo:
                memo[key] = OpPrice.of((), ())

        def fresh_reference():
            replayer = PlanSession().prepare(request).replayer
            replayer.incremental = False
            return replayer

        poisoned = session.prepare(request).replayer
        reference = fresh_reference()
        assert (
            poisoned.simulate().iteration_time
            != reference.simulate().iteration_time
        )

        poisoned = session.prepare(request).replayer
        poisoned.incremental = False
        assert (
            poisoned.simulate().iteration_time.hex()
            == reference.simulate().iteration_time.hex()
        )
        poisoned = session.prepare(request).replayer
        for group in poisoned.groups:
            rank = group.ranks[0]
            built = group.mapper.build_local_dfg(group.device.name, rank)
            expected = reference.local_dfg(rank)
            assert [(n.name, n.duration.hex()) for n in built.forward] == [
                (n.name, n.duration.hex()) for n in expected.forward
            ]
            assert [(n.name, n.duration.hex()) for n in built.backward] == [
                (n.name, n.duration.hex()) for n in expected.backward
            ]

    def test_opaque_model_stores_no_price_memo_or_indicator(self):
        session = PlanSession()
        session.plan(_start_request(
            strategy="random",
            model=lambda: mini_model_graph("mini_bert", **_MINI_BERT),
            model_kwargs={},
        ))
        assert {k[0] for k in session.profiles._memo}.isdisjoint(
            {"prices", "random_indicator"}
        )
        session.plan(_start_request())
        assert len(_price_memos(session)) == 2  # one per device type

    def test_random_indicator_drawn_once_and_equal_to_fresh(self):
        request = _start_request(strategy="random", seed=7)
        session = PlanSession()
        first = session.plan(request)
        entries = {
            k: v for k, v in session.profiles._memo.items()
            if k[0] == "random_indicator"
        }
        assert list(entries) == [
            ("random_indicator", request.model_cache_key(), 7)
        ]
        cached = next(iter(entries.values()))
        template = session.prepare(request).template
        ops = list(template.adjustable_ops())
        fresh = RandomIndicator(ops, seed=7)
        for op in ops:
            for prec in Precision:
                assert cached.omega(op, prec).hex() == fresh.omega(op, prec).hex()
        second = session.plan(request)
        assert session.profiles._memo[next(iter(entries))] is cached
        assert _outcome_bits(second) == _outcome_bits(first)
        assert _outcome_bits(second) == _outcome_bits(PlanSession().plan(request))
