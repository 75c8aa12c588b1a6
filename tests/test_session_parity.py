"""PlanSession vs the legacy pipeline: bit-identical results.

The regression oracle of this API redesign (the PR 3 discipline): the
legacy workflow is re-implemented here *verbatim* — the pre-session
pipeline bodies, inlined as ``legacy_build_replayer``/``legacy_qsync_plan``
— and every planner strategy, plus ``PlanSession.prepare``'s replayer,
must reproduce it bit-for-bit on ClusterA and ClusterB presets.
"""

import pytest

from repro.backend.lp_backend import LPBackend
from repro.baselines import DproReplayer, HessianIndicator, RandomIndicator
from repro.baselines.hessian import structural_eigenvalues
from repro.baselines.uniform import uniform_precision_plan
from repro.core.allocator import Allocator
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.core.replayer import Replayer
from repro.hardware import make_cluster_a, make_cluster_b
from repro.models import mini_model_graph
from repro.profiling.casting import CastCostCalculator
from repro.profiling.profiler import profile_operator_costs
from repro.profiling.stats import synthesize_stats
from repro.session import PlanRequest, PlanSession, QSyncReport


def _builder():
    return mini_model_graph("mini_bert", batch_size=4)


# ---------------------------------------------------------------------------
# the legacy pipeline, inlined (pre-session implementation, verbatim)
# ---------------------------------------------------------------------------


def legacy_build_replayer(dag_builder, cluster, optimizer_slots=1,
                          profile_repeats=3, collective_model=None):
    backends = {w.rank: LPBackend(w.device, seed=0) for w in cluster.workers}
    dags = {w.rank: dag_builder() for w in cluster.workers}
    catalogs_by_type, casts_by_type = {}, {}
    catalogs, cast_calcs = {}, {}
    for w in cluster.workers:
        tname = w.device.name
        if tname not in catalogs_by_type:
            catalogs_by_type[tname] = profile_operator_costs(
                dags[w.rank], backends[w.rank], repeats=profile_repeats
            )
            casts_by_type[tname] = CastCostCalculator(backends[w.rank])
        catalogs[w.rank] = catalogs_by_type[tname]
        cast_calcs[w.rank] = casts_by_type[tname]
    replayer = Replayer(
        cluster, dags, catalogs, cast_calcs, optimizer_slots=optimizer_slots,
        collective_model=collective_model,
    )
    return replayer, backends


def legacy_qsync_plan(dag_builder, cluster, loss="ce", indicator_factory=None):
    template = dag_builder()
    batch_size = template.spec(template.root()).output_shape[0]
    stats = synthesize_stats(template)
    gamma = gamma_for_loss(loss, batch_size)
    replayer, _ = legacy_build_replayer(dag_builder, cluster)
    indicators = {}
    for w in cluster.inference_workers:
        if w.device.name not in indicators:
            dag = replayer.dags[w.rank]
            if indicator_factory is None:
                indicators[w.device.name] = VarianceIndicator(dag, stats, gamma)
            else:
                indicators[w.device.name] = indicator_factory(dag, stats, gamma)
    allocator = Allocator(replayer, indicators)
    plan, alloc_report = allocator.allocate()
    final = replayer.simulate()
    report = QSyncReport(
        cluster=cluster.describe(),
        model_summary=template.summary(),
        allocation=alloc_report,
        final_simulation=final,
    )
    return plan, report


CLUSTERS = {
    "ClusterA": lambda: make_cluster_a(1, 1),
    # Two ranks per type: the session plans each type as one rank group,
    # the legacy pipeline hands the replayer a DAG per rank.
    "ClusterA_2+2": lambda: make_cluster_a(2, 2),
    "ClusterB": lambda: make_cluster_b(1, 1),
}


@pytest.fixture(scope="module", params=sorted(CLUSTERS))
def cluster(request):
    return CLUSTERS[request.param]()


def _request(cluster, **overrides):
    defaults = dict(model=_builder, cluster=cluster, loss="ce")
    defaults.update(overrides)
    return PlanRequest(**defaults)


# ---------------------------------------------------------------------------
# qsync: legacy pipeline == session
# ---------------------------------------------------------------------------


class TestQSyncParity:
    @pytest.fixture(scope="class")
    def legacy(self, cluster):
        return legacy_qsync_plan(_builder, cluster)

    def test_session_matches_legacy_pipeline(self, cluster, legacy):
        plan_old, report_old = legacy
        outcome = PlanSession().plan(_request(cluster))
        assert outcome.plan == plan_old
        assert outcome.report == report_old
        assert outcome.simulation == report_old.final_simulation
        assert outcome.simulation.timeline == report_old.final_simulation.timeline


class TestBuildReplayerParity:
    def test_session_context_matches_legacy_pipeline(self, cluster):
        rep_old, backends_old = legacy_build_replayer(
            _builder, cluster, profile_repeats=2
        )
        ctx = PlanSession().prepare(_request(cluster, profile_repeats=2))
        assert sorted(backends_old) == sorted(ctx.backends)
        old, new = rep_old.simulate(), ctx.replayer.simulate()
        assert old == new
        assert old.timeline == new.timeline
        for w in cluster.workers:
            assert rep_old.memory_estimate(w.rank) == ctx.replayer.memory_estimate(
                w.rank
            )


# ---------------------------------------------------------------------------
# baselines: each strategy == its legacy per-baseline entry point
# ---------------------------------------------------------------------------


class TestBaselineParity:
    def test_uniform_matches_legacy_entry_point(self, cluster):
        replayer, _ = legacy_build_replayer(_builder, cluster)
        assignments = {}
        for w in cluster.inference_workers:
            tname = w.device.name
            if tname not in assignments:
                assignments[tname] = uniform_precision_plan(
                    replayer.dags[w.rank], w.device
                )
            replayer.apply_plan(w.rank, assignments[tname])
        sim_old = replayer.simulate()

        outcome = PlanSession().plan(_request(cluster, strategy="uniform"))
        assert outcome.plan.assignments == assignments
        assert outcome.simulation == sim_old
        assert outcome.simulation.timeline == sim_old.timeline

    def test_dpro_matches_legacy_entry_point(self, cluster):
        replayer, _ = legacy_build_replayer(_builder, cluster)
        sim_old = DproReplayer(
            cluster,
            replayer.dags,
            {r: replayer.mappers[r].catalog for r in replayer.mappers},
        ).simulate()

        outcome = PlanSession().plan(_request(cluster, strategy="dpro"))
        assert outcome.simulation == sim_old
        assert outcome.plan.assignments == {}

    def test_random_matches_legacy_indicator_factory(self, cluster):
        plan_old, report_old = legacy_qsync_plan(
            _builder, cluster,
            indicator_factory=lambda dag, stats, gamma: RandomIndicator(
                list(dag.adjustable_ops()), seed=0
            ),
        )
        outcome = PlanSession().plan(_request(cluster, strategy="random"))
        assert outcome.plan == plan_old
        assert outcome.simulation == report_old.final_simulation
        assert outcome.report.allocation == report_old.allocation

    def test_hessian_matches_legacy_indicator_factory(self, cluster):
        plan_old, report_old = legacy_qsync_plan(
            _builder, cluster,
            indicator_factory=lambda dag, stats, gamma: HessianIndicator(
                structural_eigenvalues(dag, stats), stats
            ),
        )
        outcome = PlanSession().plan(_request(cluster, strategy="hessian"))
        assert outcome.plan == plan_old
        assert outcome.simulation == report_old.final_simulation
        assert outcome.report.allocation == report_old.allocation

    def test_compare_matches_individual_plans(self, cluster):
        """compare() is plan() in a loop — warm artifacts, same bits."""
        session = PlanSession()
        table = session.compare(
            _request(cluster), strategies=("uniform", "dpro")
        )
        for name in ("uniform", "dpro"):
            solo = PlanSession().plan(_request(cluster, strategy=name))
            assert table[name].simulation == solo.simulation
            assert table[name].plan == solo.plan
