"""Tests for elastic cluster membership: event validation, membership
deltas, incremental re-planning through the full session path, and
epoch-segmented simulation."""


import pytest

from repro.common.errors import QuorumLostError
from repro.common.units import GBPS
from repro.engine import Perturbation, simulate_with_churn
from repro.hardware import (
    A100,
    T4,
    V100,
    Cluster,
    ClusterEvent,
    Worker,
    apply_events,
    make_cloud_edge_cluster,
    make_cluster_a,
    validate_events,
)
from repro.session import PlanRequest, PlanSession, ReplanOutcome

#: Small graph/cluster knobs shared by the session-path tests.
GRAPH_KW = {"batch_size": 4, "width_scale": 4, "spatial_scale": 2}


def _request(cluster, **overrides):
    kwargs = dict(
        model="mini_bert",
        model_kwargs=GRAPH_KW,
        cluster=cluster,
        profile_repeats=1,
    )
    kwargs.update(overrides)
    return PlanRequest(**kwargs)


# ---------------------------------------------------------------------------
# construction-time validation (the PlanRequest discipline)
# ---------------------------------------------------------------------------


class TestEventValidation:
    def test_unknown_kind_named(self):
        with pytest.raises(ValueError, match="kind"):
            ClusterEvent(0.0, "reboot", 0)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_time_named(self, bad):
        with pytest.raises(ValueError, match="time"):
            ClusterEvent(bad, "leave", 0)

    def test_negative_rank_named(self):
        with pytest.raises(ValueError, match="rank"):
            ClusterEvent(0.0, "leave", -1)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_bad_factor_named(self, bad):
        with pytest.raises(ValueError, match="factor"):
            ClusterEvent(0.0, "degrade", 0, factor=bad)

    def test_join_requires_device(self):
        with pytest.raises(ValueError, match="device"):
            ClusterEvent(0.0, "join", 4, link_bandwidth=GBPS)

    @pytest.mark.parametrize("bad", [None, 0.0, -1.0, float("nan")])
    def test_join_requires_positive_bandwidth(self, bad):
        with pytest.raises(ValueError, match="link_bandwidth"):
            ClusterEvent(0.0, "join", 4, device=T4, link_bandwidth=bad)

    def test_non_monotonic_times_named(self):
        cluster = make_cluster_a(2, 2)
        events = (
            ClusterEvent(2.0, "leave", 3),
            ClusterEvent(1.0, "leave", 2),
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            validate_events(events, cluster)

    def test_leave_of_unknown_rank_rejected(self):
        cluster = make_cluster_a(2, 2)
        with pytest.raises(ValueError, match="unknown"):
            validate_events((ClusterEvent(0.0, "leave", 9),), cluster)

    def test_degrade_after_leave_rejected(self):
        # Membership is tracked *through* the batch: rank 3 is gone by the
        # time the degrade lands.
        cluster = make_cluster_a(2, 2)
        events = (
            ClusterEvent(1.0, "leave", 3),
            ClusterEvent(2.0, "degrade", 3, factor=2.0),
        )
        with pytest.raises(ValueError, match="unknown"):
            validate_events(events, cluster)

    def test_join_of_existing_member_rejected(self):
        cluster = make_cluster_a(2, 2)
        events = (
            ClusterEvent(0.0, "join", 1, device=V100, link_bandwidth=GBPS),
        )
        with pytest.raises(ValueError, match="already a member"):
            validate_events(events, cluster)

    def test_rejoin_after_leave_is_legal(self):
        cluster = make_cluster_a(2, 2)
        events = (
            ClusterEvent(1.0, "leave", 3),
            ClusterEvent(2.0, "join", 3, device=T4, link_bandwidth=GBPS),
        )
        validate_events(events, cluster)  # must not raise


class TestPerturbationValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_bad_jitter_named(self, bad):
        with pytest.raises(ValueError, match="compute_jitter"):
            Perturbation(compute_jitter=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_bad_drift_named(self, bad):
        with pytest.raises(ValueError, match="bandwidth_drift"):
            Perturbation(bandwidth_drift=bad)

    def test_negative_straggler_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            Perturbation(stragglers={-1: 2.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_straggler_factor_rejected(self, bad):
        with pytest.raises(ValueError, match="factor"):
            Perturbation(stragglers={0: bad})

    def test_with_degradations_composes_multiplicatively(self):
        base = Perturbation(stragglers={1: 2.0})
        merged = base.with_degradations([(1, 1.5), (3, 3.0)])
        assert merged.stragglers == ((1, 3.0), (3, 3.0))
        # The original is untouched (frozen, copy semantics).
        assert base.stragglers == ((1, 2.0),)


# ---------------------------------------------------------------------------
# apply_events: membership folding + topology rebuild
# ---------------------------------------------------------------------------


class TestApplyEvents:
    def test_zero_events_returns_same_object(self):
        cluster = make_cluster_a(2, 2)
        new, delta = apply_events(cluster, ())
        assert new is cluster
        assert delta.is_noop

    def test_leave_retires_rank_and_updates_topology(self):
        cluster = make_cloud_edge_cluster(2, 2, 2)  # ranks 0..5, 3 nodes
        new, delta = apply_events(cluster, (ClusterEvent(1.0, "leave", 2),))
        assert [w.rank for w in new.workers] == [0, 1, 3, 4, 5]
        assert delta.left == (2,)
        # Rank 2's sibling (rank 3) stays on the shrunk edge node.
        assert new.topology.node_of(3).ranks == (3,)
        assert new.topology.rank_set() == {0, 1, 3, 4, 5}

    def test_full_node_departure_drops_the_node(self):
        cluster = make_cloud_edge_cluster(2, 2, 2)
        events = (
            ClusterEvent(1.0, "leave", 2),
            ClusterEvent(1.0, "leave", 3),
        )
        new, _ = apply_events(cluster, events)
        assert new.n_nodes == cluster.n_nodes - 1

    def test_join_adds_single_rank_node(self):
        cluster = make_cluster_a(2, 1)
        events = (
            ClusterEvent(1.0, "join", 7, device=A100, link_bandwidth=10 * GBPS),
        )
        new, delta = apply_events(cluster, events)
        assert [w.rank for w in new.workers] == [0, 1, 2, 7]
        assert delta.joined == (7,)
        node = new.topology.node_of(7)
        assert node.ranks == (7,)
        assert node.uplink.bandwidth == 10 * GBPS

    def test_leave_then_identical_rejoin_is_net_noop(self):
        cluster = make_cluster_a(2, 2)
        worker = cluster.workers[-1]
        events = (
            ClusterEvent(1.0, "leave", worker.rank),
            ClusterEvent(
                2.0, "join", worker.rank,
                device=worker.device, link_bandwidth=worker.link_bandwidth,
            ),
        )
        new, delta = apply_events(cluster, events)
        assert new is cluster
        assert delta.is_noop

    def test_leave_then_different_rejoin_is_replacement(self):
        cluster = make_cluster_a(2, 2)
        events = (
            ClusterEvent(1.0, "leave", 3),
            ClusterEvent(2.0, "join", 3, device=A100, link_bandwidth=GBPS),
        )
        new, delta = apply_events(cluster, events)
        assert new is not cluster
        assert delta.replaced == (3,)
        assert not delta.is_noop
        assert {w.rank: w.device.name for w in new.workers}[3] == "A100"

    def test_degrades_compose_and_die_with_the_rank(self):
        cluster = make_cluster_a(2, 2)
        events = (
            ClusterEvent(1.0, "degrade", 1, factor=2.0),
            ClusterEvent(2.0, "degrade", 1, factor=1.5),
            ClusterEvent(2.0, "degrade", 3, factor=4.0),
            ClusterEvent(3.0, "leave", 3),
        )
        new, delta = apply_events(cluster, events)
        assert delta.degraded == ((1, 3.0),)  # rank 3's degradation left too
        assert delta.left == (3,)
        # Degrades alone never rebuild the cluster.
        only_degrade, d2 = apply_events(
            cluster, (ClusterEvent(1.0, "degrade", 0, factor=2.0),)
        )
        assert only_degrade is cluster
        assert d2.degraded == ((0, 2.0),) and not d2.is_noop

    def test_quorum_enforced_at_the_breaking_leave(self):
        cluster = make_cluster_a(2, 2)
        events = tuple(
            ClusterEvent(float(i), "leave", rank)
            for i, rank in enumerate((3, 2, 1))
        )
        with pytest.raises(QuorumLostError, match="quorum of 3"):
            apply_events(cluster, events, quorum=3)
        # One above the threshold survives.
        new, delta = apply_events(cluster, events, quorum=1)
        assert [w.rank for w in new.workers] == [0]

    def test_bad_quorum_rejected(self):
        with pytest.raises(ValueError, match="quorum"):
            apply_events(make_cluster_a(1, 1), (), quorum=0)


# ---------------------------------------------------------------------------
# PlanSession.replan — incremental re-planning on warm artifacts
# ---------------------------------------------------------------------------


class TestReplan:
    def _cluster(self):
        # Gapped from the start (PR 5 rank-identity habitat): ranks 0, 2, 5.
        return Cluster(
            name="gappy",
            workers=(
                Worker(rank=0, device=V100, link_bandwidth=32 * GBPS),
                Worker(rank=2, device=V100, link_bandwidth=32 * GBPS),
                Worker(rank=5, device=T4, link_bandwidth=8 * GBPS),
            ),
        )

    def test_zero_event_replan_is_bit_identical(self):
        session = PlanSession()
        outcome = session.plan(_request(self._cluster()))
        re = session.replan(session.last_context, ())
        assert isinstance(re, ReplanOutcome)
        assert re.simulation == outcome.simulation
        assert re.plan == outcome.plan
        assert re.new_profile_events == 0
        assert re.delta.is_noop

    def test_replan_counts_and_context_chaining(self):
        session = PlanSession()
        session.plan(_request(self._cluster()))
        assert session.stats.replan_calls == 0
        re = session.replan(
            session.last_context, (ClusterEvent(1.0, "leave", 5),)
        )
        assert session.stats.replan_calls == 1
        assert session.last_context is re.context
        # Chain a second replan off the returned context.
        re2 = session.replan(re.context, (ClusterEvent(2.0, "leave", 2),))
        assert [w.rank for w in re2.context.cluster.workers] == [0]
        assert session.stats.replan_calls == 2

    def test_leave_survivors_flow_through_session_and_engine(self):
        # Non-contiguous survivors through the *full* path —
        # replan -> Replayer.simulate -> Eq. (6) recurrence -> timeline.
        session = PlanSession()
        session.plan(_request(self._cluster()))
        re = session.replan(
            session.last_context, (ClusterEvent(1.0, "leave", 2),)
        )
        survivors = {0, 5}
        assert {w.rank for w in re.context.cluster.workers} == survivors
        assert set(re.simulation.per_device_compute) == survivors
        sim = re.context.replayer.simulate()
        assert {e.rank for e in sim.timeline} == survivors
        engine_sim = re.context.replayer.simulate(schedule_policy="blocking_sync")
        assert {e.rank for e in engine_sim.timeline} == survivors

    def test_replan_profiles_nothing_for_known_device_types(self):
        session = PlanSession()
        session.plan(_request(self._cluster()))
        before = session.stats.profile_events
        re = session.replan(
            session.last_context, (ClusterEvent(1.0, "leave", 5),)
        )
        assert session.stats.profile_events == before
        assert re.new_profile_events == 0

    def test_join_of_novel_device_type_profiles_once(self):
        session = PlanSession()
        session.plan(_request(self._cluster()))
        before = session.stats.profile_events
        re = session.replan(
            session.last_context,
            (ClusterEvent(1.0, "join", 7, device=A100, link_bandwidth=GBPS),),
        )
        # Exactly the new type's catalog + cast fit; V100/T4 stay warm.
        assert re.new_profile_events == 2
        assert session.stats.profile_events == before + 2
        assert {w.rank for w in re.context.cluster.workers} == {0, 2, 5, 7}

    def test_degrade_composes_into_request_perturbation(self):
        session = PlanSession()
        base_pert = Perturbation(seed=7, stragglers={5: 2.0})
        session.plan(_request(self._cluster(), perturbation=base_pert))
        re = session.replan(
            session.last_context,
            (ClusterEvent(1.0, "degrade", 5, factor=1.5),),
        )
        new_pert = re.context.request.perturbation
        assert new_pert.stragglers == ((5, 3.0),)
        assert new_pert.seed == 7  # base perturbation semantics preserved
        # Degrading a rank can only slow the synchronous iteration.
        clean = session.plan(_request(self._cluster()))
        assert (
            re.simulation.iteration_time >= clean.simulation.iteration_time
        )

    def test_degrade_without_base_perturbation_creates_one(self):
        session = PlanSession()
        session.plan(_request(self._cluster()))
        re = session.replan(
            session.last_context,
            (ClusterEvent(1.0, "degrade", 0, factor=2.0),),
        )
        assert re.context.request.perturbation.stragglers == ((0, 2.0),)

    def test_replan_from_bare_request(self):
        # A PlanRequest (no warm context) is accepted: profiling reuse
        # still applies through the session store.
        session = PlanSession()
        request = _request(self._cluster())
        session.plan(request)
        re = session.replan(request, (ClusterEvent(1.0, "leave", 5),))
        assert re.new_profile_events == 0
        assert {w.rank for w in re.context.cluster.workers} == {0, 2}

    def test_replan_quorum_error_propagates(self):
        session = PlanSession()
        session.plan(_request(self._cluster()))
        events = (
            ClusterEvent(1.0, "leave", 5),
            ClusterEvent(2.0, "leave", 2),
        )
        with pytest.raises(QuorumLostError):
            session.replan(session.last_context, events, quorum=2)

    def test_replan_rejects_junk_ctx(self):
        with pytest.raises(ValueError, match="PlanContext or PlanRequest"):
            PlanSession().replan("nonsense", ())

    def test_replan_drops_departed_explicit_backends(self):
        from repro.backend.lp_backend import LPBackend

        cluster = self._cluster()
        backends = {5: LPBackend(T4, seed=3)}
        session = PlanSession()
        session.plan(_request(cluster, backends=backends))
        re = session.replan(
            session.last_context, (ClusterEvent(1.0, "leave", 5),)
        )
        assert re.context.request.backends is None


# ---------------------------------------------------------------------------
# epoch-segmented simulation
# ---------------------------------------------------------------------------


class TestSegmentedRuns:
    def _session_and_request(self):
        cluster = Cluster(
            name="gappy",
            workers=(
                Worker(rank=0, device=V100, link_bandwidth=32 * GBPS),
                Worker(rank=2, device=V100, link_bandwidth=32 * GBPS),
                Worker(rank=5, device=T4, link_bandwidth=8 * GBPS),
            ),
        )
        return PlanSession(), _request(cluster)

    def test_no_events_single_segment(self):
        session, request = self._session_and_request()
        run = simulate_with_churn(session, request, (), total_iterations=10)
        assert run.n_segments == 1
        seg = run.segments[0]
        assert seg.iterations == 10 and seg.opening_events == ()
        assert seg.ranks == (0, 2, 5)
        assert run.simulated_s == pytest.approx(10 * seg.iteration_s)
        assert run.unapplied_events == ()

    def test_mid_run_leave_splits_contiguously(self):
        session, request = self._session_and_request()
        probe = simulate_with_churn(session, request, (), total_iterations=1)
        iter_s = probe.segments[0].iteration_s
        events = (ClusterEvent(4 * iter_s, "leave", 5),)
        run = simulate_with_churn(session, request, events, total_iterations=10)
        assert run.n_segments == 2
        first, second = run.segments
        assert first.iterations == 4 and first.ranks == (0, 2, 5)
        assert second.iterations == 6 and second.ranks == (0, 2)
        assert second.opening_events == events
        assert second.start_s == pytest.approx(first.end_s)
        assert run.total_iterations == 10
        assert run.simulated_s == pytest.approx(
            first.iterations * first.iteration_s
            + second.iterations * second.iteration_s
        )

    def test_event_lands_at_next_iteration_boundary(self):
        session, request = self._session_and_request()
        probe = simulate_with_churn(session, request, (), total_iterations=1)
        iter_s = probe.segments[0].iteration_s
        # Mid-iteration timestamp rounds *up* to the next boundary.
        events = (ClusterEvent(2.5 * iter_s, "leave", 5),)
        run = simulate_with_churn(session, request, events, total_iterations=8)
        assert run.segments[0].iterations == 3

    def test_degrade_slows_the_following_segment(self):
        session, request = self._session_and_request()
        probe = simulate_with_churn(session, request, (), total_iterations=1)
        iter_s = probe.segments[0].iteration_s
        events = (ClusterEvent(3 * iter_s, "degrade", 0, factor=3.0),)
        run = simulate_with_churn(session, request, events, total_iterations=8)
        first, second = run.segments
        assert second.iteration_s > first.iteration_s
        assert second.degraded == ((0, 3.0),)

    def test_events_beyond_run_end_are_reported_unapplied(self):
        session, request = self._session_and_request()
        events = (ClusterEvent(1e6, "leave", 5),)
        run = simulate_with_churn(session, request, events, total_iterations=5)
        assert run.n_segments == 1
        assert run.unapplied_events == events
        assert run.segments[0].ranks == (0, 2, 5)

    def test_batched_events_apply_at_one_boundary(self):
        session, request = self._session_and_request()
        probe = simulate_with_churn(session, request, (), total_iterations=1)
        iter_s = probe.segments[0].iteration_s
        events = (
            ClusterEvent(2.1 * iter_s, "degrade", 0, factor=2.0),
            ClusterEvent(2.9 * iter_s, "leave", 5),
        )
        run = simulate_with_churn(session, request, events, total_iterations=9)
        assert run.n_segments == 2
        second = run.segments[1]
        assert second.opening_events == events
        assert second.ranks == (0, 2)
        assert second.degraded == ((0, 2.0),)

    def test_quorum_loss_propagates_from_boundary(self):
        session, request = self._session_and_request()
        probe = simulate_with_churn(session, request, (), total_iterations=1)
        iter_s = probe.segments[0].iteration_s
        events = (
            ClusterEvent(2 * iter_s, "leave", 5),
            ClusterEvent(4 * iter_s, "leave", 2),
        )
        with pytest.raises(QuorumLostError):
            simulate_with_churn(
                session, request, events, total_iterations=10, quorum=2
            )

    def test_boundary_replans_cost_no_profiling(self):
        session, request = self._session_and_request()
        probe = simulate_with_churn(session, request, (), total_iterations=1)
        iter_s = probe.segments[0].iteration_s
        before = session.stats.profile_events
        events = (
            ClusterEvent(2 * iter_s, "degrade", 0, factor=2.0),
            ClusterEvent(5 * iter_s, "leave", 5),
        )
        run = simulate_with_churn(session, request, events, total_iterations=12)
        assert session.stats.profile_events == before
        assert all(seg.new_profile_events == 0 for seg in run.segments)

    def test_bad_iteration_budget_rejected(self):
        session, request = self._session_and_request()
        with pytest.raises(ValueError, match="total_iterations"):
            simulate_with_churn(session, request, (), total_iterations=0)

    def test_segments_have_no_wall_clock_state(self):
        # Determinism contract for cached sweep artifacts: two identical
        # runs produce identical segment records.
        session, request = self._session_and_request()
        probe = simulate_with_churn(session, request, (), total_iterations=1)
        iter_s = probe.segments[0].iteration_s
        events = (ClusterEvent(3 * iter_s, "leave", 5),)
        a = simulate_with_churn(session, request, events, total_iterations=8)
        b = simulate_with_churn(session, request, events, total_iterations=8)
        assert a == b


# ---------------------------------------------------------------------------
# churn experiment
# ---------------------------------------------------------------------------


class TestChurnExperiment:
    def test_registered_with_axes(self):
        from repro.experiments import EXPERIMENTS, SCENARIOS

        assert "churn" in EXPERIMENTS and "churn" in SCENARIOS
        axes = SCENARIOS["churn"]
        labels = {v.label for v in axes.variants("quick")}
        assert labels == {"edge_flap", "rolling_degrade", "shrink", "collapse"}

    def test_traces_are_seed_derived_and_stable(self):
        from repro.experiments import churn
        from repro.common.rng import derive_seed
        from repro.hardware import get_cluster_preset

        cluster = get_cluster_preset(churn.CLUSTER_PRESET)
        for name, gen in churn.TRACES.items():
            seed = derive_seed(0, "churn", name)
            a = gen(cluster, seed, 10.0)
            b = gen(cluster, seed, 10.0)
            assert a == b, name
            validate_events(a, cluster)  # every trace is self-consistent

    def test_quick_run_shapes(self):
        from repro.experiments import churn

        result = churn.run(quick=True, traces=("rolling_degrade", "collapse"))
        rows = {row[0]: row for row in result.rows}
        # Degrading ranks can only slow synchronous training.
        assert float(rows["rolling_degrade"][4].rstrip("x")) >= 1.0
        assert rows["rolling_degrade"][5] == "0"  # zero new profiling
        # The quorum-crossing trace is a graceful row, not a crash.
        assert "quorum lost" in rows["collapse"][5]
