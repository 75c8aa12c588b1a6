"""Tests for the Allocator and the ``qsync`` planning strategy."""

import dataclasses

import pytest

from repro.common import Precision
from repro.common.errors import InfeasiblePlanError
from repro.core import AllocatorConfig
from repro.core.allocator import (
    MAX_BRUTEFORCE_OPS,
    Allocator,
    decision_ops,
    op_candidates,
)
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OperatorSpec, OpKind, elementwise_flops, linear_flops
from repro.graph.subgraph import group_blocks, isomorphism_classes
from repro.hardware import DEVICE_REGISTRY, T4, make_cluster_a, make_cluster_b
from repro.models import MODEL_GRAPHS, mini_model_graph
from repro.models.trainable import MINI_MODELS
from repro.profiling import synthesize_stats
from repro.session import PlanRequest, PlanSession


def scaled_bert(batch=8):
    return mini_model_graph("mini_bert", batch_size=batch, width_scale=24, spatial_scale=8)


def scaled_vggbn(batch=384):
    # At this scale a 30%-shared T4 (4.8 GiB) fits INT8 (~3.4 GiB) but not
    # FP16 (~5.4 GiB) — the ClusterB regime that forces fixed-point.
    return mini_model_graph("mini_vggbn", batch_size=batch, width_scale=16, spatial_scale=4)


@pytest.fixture(scope="module")
def cluster_a_plan():
    cluster = make_cluster_a(1, 1)
    outcome = PlanSession().plan(
        PlanRequest(model=scaled_bert, cluster=cluster, loss="ce")
    )
    return outcome.plan, outcome.report


class TestAllocatorClusterA:
    def test_plan_covers_all_adjustable_ops(self, cluster_a_plan):
        plan, _ = cluster_a_plan
        dag = scaled_bert()
        t4_plan = plan.for_device("T4")
        assert set(t4_plan) == set(dag.adjustable_ops())

    def test_training_gpus_untouched(self, cluster_a_plan):
        plan, _ = cluster_a_plan
        assert plan.for_device("V100") == {}

    def test_recovery_happened(self, cluster_a_plan):
        """ClusterA has memory headroom: QSync should recover some ops to a
        higher precision than the fastest-feasible start."""
        _, report = cluster_a_plan
        assert report.allocation.recovery_accepted > 0

    def test_throughput_constraint_respected(self, cluster_a_plan):
        _, report = cluster_a_plan
        alloc = report.allocation
        assert alloc.final_throughput >= 0.99 * alloc.t_min

    def test_not_uniformly_low(self, cluster_a_plan):
        """Quantization-minimized: some ops recovered above the minimum."""
        plan, _ = cluster_a_plan
        counts = plan.precision_counts("T4")
        assert counts["fp32"] > 0 or counts["fp16"] > 0

    def test_softmax_stays_fp32(self, cluster_a_plan):
        plan, _ = cluster_a_plan
        t4 = plan.for_device("T4")
        softmax_ops = [op for op in t4 if "softmax" in op]
        assert softmax_ops
        assert all(t4[op] is Precision.FP32 for op in softmax_ops)

    def test_plan_roundtrips_through_dict(self, cluster_a_plan):
        from repro.core.plan import PrecisionPlan

        plan, _ = cluster_a_plan
        restored = PrecisionPlan.from_dict(plan.to_dict())
        assert restored.for_device("T4") == plan.for_device("T4")

    def test_report_summary_readable(self, cluster_a_plan):
        _, report = cluster_a_plan
        text = report.summary()
        assert "it/s" in text and "ClusterA" in text


class TestAllocatorClusterB:
    def test_memory_pressure_forces_quantization(self):
        """ClusterB (30% T4 memory) must quantize more than ClusterA."""
        cluster_b = make_cluster_b(1, 1, memory_ratio=0.3)
        dag_builder = scaled_vggbn
        outcome = PlanSession().plan(
            PlanRequest(model=dag_builder, cluster=cluster_b, loss="ce")
        )
        plan_b, report_b = outcome.plan, outcome.report

        cluster_a = make_cluster_a(1, 1)
        outcome = PlanSession().plan(
            PlanRequest(model=dag_builder, cluster=cluster_a, loss="ce")
        )
        plan_a, report_a = outcome.plan, outcome.report

        quantized_b = len(plan_b.quantized_ops("T4"))
        quantized_a = len(plan_a.quantized_ops("T4"))
        assert quantized_b >= quantized_a

    def test_memory_constraint_satisfied(self):
        cluster = make_cluster_b(1, 1, memory_ratio=0.3)
        builder = scaled_vggbn
        report = PlanSession().plan(
            PlanRequest(model=builder, cluster=cluster, loss="ce")
        ).report
        mem = report.final_simulation.memory
        t4_available = cluster.inference_workers[0].device.available_memory
        t4_rank = cluster.inference_workers[0].rank
        assert mem[t4_rank].total <= t4_available

    def test_infeasible_raises(self):
        cluster = make_cluster_b(1, 1, memory_ratio=0.02)  # 320 MB
        builder = lambda: scaled_vggbn(batch=512)
        with pytest.raises(InfeasiblePlanError):
            PlanSession().plan(
                PlanRequest(model=builder, cluster=cluster, loss="ce")
            )


class TestAllocatorMechanics:
    def test_indicator_guides_recovery_order(self):
        """With headroom for only some promotions, the *least* sensitive ops
        must be the ones recovered last (highest omega recovered first)."""
        cluster = make_cluster_a(1, 1)
        replayer = PlanSession().prepare(
            PlanRequest(model=scaled_bert, cluster=cluster, profile_repeats=1)
        ).replayer
        dag = replayer.dags[1]
        stats = synthesize_stats(dag, seed=0)
        indicator = VarianceIndicator(dag, stats, gamma_for_loss("ce", 8))
        allocator = Allocator(replayer, {"T4": indicator})
        plan, report = allocator.allocate()
        t4 = plan.for_device("T4")
        # Every op at FP32 either has a higher indicator value at FP16 than
        # those left at FP16, or throughput blocked further recovery — at
        # minimum the mechanism must produce a mixed (non-uniform) plan
        # whenever recovery stopped early.
        assert report.recovery_attempts >= report.recovery_accepted

    def test_no_inference_gpus_noop(self):
        from repro.hardware.cluster import Cluster, Worker
        from repro.hardware import V100
        from repro.common.units import GBPS

        cluster = Cluster(
            name="train-only",
            workers=tuple(
                Worker(rank=i, device=V100, link_bandwidth=300 * GBPS) for i in range(2)
            ),
        )
        outcome = PlanSession().plan(
            PlanRequest(model=scaled_bert, cluster=cluster, loss="ce")
        )
        plan, report = outcome.plan, outcome.report
        assert plan.assignments == {}
        assert report.allocation.recovery_attempts == 0

    def test_throughput_at_least_t_min(self):
        cluster = make_cluster_b(1, 1, memory_ratio=0.3)
        report = PlanSession().plan(
            PlanRequest(
                model=scaled_vggbn,
                cluster=cluster,
                loss="ce",
                config=AllocatorConfig(throughput_slack=0.005),
            )
        ).report
        alloc = report.allocation
        assert alloc.final_throughput >= (1 - 0.006) * alloc.t_min

    def test_config_limits_recovery_steps(self):
        cluster = make_cluster_a(1, 1)
        report = PlanSession().plan(
            PlanRequest(
                model=scaled_bert,
                cluster=cluster,
                config=AllocatorConfig(max_recovery_steps=3),
            )
        ).report
        assert report.allocation.recovery_attempts <= 3


def three_type_cluster(small_share, v100_share=1.0):
    """V100 + T4 + a partially loaned T4 under its own device name: two
    planned types whose memory budgets differ."""
    from repro.common.units import GBPS
    from repro.hardware import T4, V100
    from repro.hardware.cluster import Cluster, Worker

    small = dataclasses.replace(T4.with_sharing(small_share), name="T4-small")
    v100 = V100 if v100_share == 1.0 else V100.with_sharing(v100_share)
    return Cluster(
        name="three-type",
        workers=tuple(
            Worker(rank=i, device=dev, link_bandwidth=bw * GBPS)
            for i, (dev, bw) in enumerate(((v100, 300), (T4, 32), (small, 32)))
        ),
    )


class _TrialCountingAllocator(Allocator):
    """Counts the brute-force trials (each checks memory once) and those
    that fail the memory check."""

    bruteforce_trials = 0
    bruteforce_memory_rejects = 0
    _in_bruteforce = False

    def _initial_plan(self, groups, plan):
        self._in_bruteforce = True
        try:
            return super()._initial_plan(groups, plan)
        finally:
            self._in_bruteforce = False

    def _memory_ok(self, groups):
        ok = super()._memory_ok(groups)
        if self._in_bruteforce:
            self.bruteforce_trials += 1
            self.bruteforce_memory_rejects += not ok
        return ok


@pytest.mark.parametrize("model, kwargs, cluster, versions, digest", [
    ("mini_bert", {"batch_size": 8, "width_scale": 16, "spatial_scale": 8},
     make_cluster_a(1, 1), (13, 2199), "a770312c595483d147029a5cc18dab93"),
    ("resnet50", {"batch_size": 128}, make_cluster_a(1, 1), (54, 1008),
     "a3e19b7c983c589c8c2735cd0dbfa39e"),
    ("resnet50", {}, make_cluster_b(1, 1, memory_ratio=0.3), (54, 1008),
     "4236a028c4db534b63914bf5848029f1"),
], ids=["mini_bert", "resnet50", "resnet50_memory_tight"])
def test_bruteforce_writes_land_on_pinned_versions_and_plan(
    model, kwargs, cluster, versions, digest
):
    """The DAG's version after the ``T_min`` ladder and after the brute
    force, and the plan (in order), are pinned: a trial rewrites every
    decision op of every row of its class, and ``set_precision`` drops the
    writes that change nothing."""
    from repro.common.stable_hash import stable_digest

    replayer = PlanSession().prepare(PlanRequest(
        model=model, model_kwargs=kwargs, cluster=cluster, profile_repeats=1,
    )).replayer
    allocator = Allocator(replayer, {})
    groups = allocator._planned_groups()["T4"]
    dag = groups[0].dag
    t_min_plan = allocator._uniform_lowest_plan(groups)
    after_ladder = dag.version
    plan = allocator._initial_plan(groups, t_min_plan)
    assert (after_ladder, dag.version) == versions
    assert stable_digest([(op, p.value) for op, p in plan.items()]) == digest


class TestAllocatorTypeIsolation:
    def test_tmin_ladder_checks_only_its_own_type(self):
        """T4 fits uniform int8 with room to spare; the T4-small type, still
        at its template precisions while T4's ladder runs, must not fail
        it."""
        request = PlanRequest(
            model="resnet50", model_kwargs={"batch_size": 128},
            cluster=three_type_cluster(0.3), profile_repeats=1,
        )
        outcome = PlanSession().plan(request)
        memory = outcome.report.final_simulation.memory
        for worker in request.cluster.workers:
            assert memory[worker.rank].total <= worker.device.available_memory
        assert set(outcome.plan.assignments) == {"T4", "T4-small"}

    @pytest.mark.parametrize("small_share, v100_share, batch, device", [
        (0.05, 1.0, 256, "T4-small"),  # a planned type's own ladder fails
        (0.3, 0.05, 128, "V100"),  # FP32-pinned training ranks overflow
    ])
    def test_infeasible_plan_names_the_device_that_overflows(
        self, small_share, v100_share, batch, device
    ):
        request = PlanRequest(
            model="resnet50", model_kwargs={"batch_size": batch},
            cluster=three_type_cluster(small_share, v100_share),
            profile_repeats=1,
        )
        with pytest.raises(
            InfeasiblePlanError, match=f"(on| exceed) {device}( memory)?$"
        ):
            PlanSession().plan(request)

    def test_planning_one_type_leaves_other_groups_untouched(self):
        replayer = PlanSession().prepare(
            PlanRequest(
                model=scaled_bert, cluster=three_type_cluster(0.3),
                profile_repeats=1,
            )
        ).replayer
        allocator = Allocator(replayer, {})
        planned = allocator._planned_groups()["T4"]
        others = [g for g in replayer.groups if g not in planned]
        assert len(others) == 2
        versions = [g.dag.version for g in others]
        before = planned[0].dag.version
        allocator._initial_plan(planned, allocator._uniform_lowest_plan(planned))
        assert planned[0].dag.version > before
        assert [g.dag.version for g in others] == versions

    def test_memory_tight_bruteforce_matches_reference(self):
        """On a 30%-shared T4 some brute-force trials overflow memory; the
        delta trials must still land on the ``incremental=False`` plan."""
        session = PlanSession()
        request = PlanRequest(
            model=scaled_vggbn, cluster=make_cluster_b(1, 1, memory_ratio=0.3),
            profile_repeats=1,
        )

        def allocate(incremental):
            replayer = session.prepare(request).replayer
            replayer.incremental = incremental
            dag = replayer.dags[1]
            indicator = VarianceIndicator(
                dag, synthesize_stats(dag, seed=0), gamma_for_loss("ce", 384)
            )
            allocator = _TrialCountingAllocator(replayer, {"T4": indicator})
            plan, report = allocator.allocate()
            return plan, report, allocator.bruteforce_memory_rejects

        plan, report, rejects = allocate(True)
        plan_ref, report_ref, rejects_ref = allocate(False)
        assert rejects > 0
        assert rejects == rejects_ref
        assert plan.to_dict() == plan_ref.to_dict()
        assert report.final_throughput == report_ref.final_throughput
        assert report.recovery_attempts == report_ref.recovery_attempts


def non_monotone_graph(rows=2**20):
    """A LINEAR(16->16) over ``rows`` rows feeding an AVGPOOL.  INT8 kernels
    emit FP32, so the pool retains 4 bytes per element under an INT8 linear
    but 2 under an FP16 one: uniform INT8 needs 160 MiB, FP16 128 MiB."""
    dag = PrecisionDAG()
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (rows, 16)))
    dag.add_op(
        OperatorSpec(
            "fc", OpKind.LINEAR, (rows, 16), weight_shape=(16, 16),
            flops=linear_flops(rows, 16, 16),
        ),
        inputs=["input"],
    )
    dag.add_op(
        OperatorSpec(
            "pool", OpKind.AVGPOOL, (rows, 16),
            flops=elementwise_flops((rows, 16)),
        ),
        inputs=["fc"],
    )
    return dag


def wide_block_graph(rows=4096, width=64, blocks=2, linears=7):
    """``blocks`` isomorphic blocks of ``linears`` chained LINEARs: one class
    wider than ``MAX_BRUTEFORCE_OPS``, so the initializer sweeps uniform
    targets instead of enumerating."""
    dag = PrecisionDAG()
    prev = dag.add_op(OperatorSpec("input", OpKind.INPUT, (rows, width)))
    for b in range(blocks):
        for i in range(linears):
            prev = dag.add_op(
                OperatorSpec(
                    f"blk{b}.fc{i}", OpKind.LINEAR, (rows, width),
                    weight_shape=(width, width),
                    flops=linear_flops(rows, width, width), block=f"blk{b}",
                ),
                inputs=[prev],
            )
    return dag


class TestPrecisionLadder:
    def test_brute_force_starts_from_the_t_min_plan(self):
        """Uniform INT8 (160 MiB) outweighs FP16 (128 MiB) on a 147.5 MiB
        T4: the T_min ladder settles on FP16, and the brute force must
        start there rather than from the all-lowest plan."""
        session = PlanSession()
        request = PlanRequest(
            model=non_monotone_graph,
            cluster=make_cluster_b(1, 1, memory_ratio=0.009),
            profile_repeats=1,
        )
        plans = {
            strategy: session.plan(
                dataclasses.replace(request, strategy=strategy)
            ).plan.to_dict()
            for strategy in ("qsync", "uniform")
        }
        assert plans["qsync"] == {"T4": {"fc": "fp16"}}
        assert plans["uniform"] == plans["qsync"]

    @pytest.mark.parametrize(
        "model", [*MODEL_GRAPHS, *MINI_MODELS], ids=str,
    )
    def test_isomorphic_decision_rows_share_candidates(self, model):
        """The brute force writes one assignment to every block of a class
        by position, so each class's decision rows must carry equal
        candidate lists on every device."""
        dag = (
            MODEL_GRAPHS[model]() if model in MODEL_GRAPHS
            else mini_model_graph(model)
        )
        blocks = group_blocks(dag)
        for device in DEVICE_REGISTRY.values():
            for labels in isomorphism_classes(dag).values():
                rows = [
                    [
                        op_candidates(dag.spec(op), device)
                        for op in decision_ops(dag, device, blocks[lbl])
                    ]
                    for lbl in labels
                ]
                assert all(row == rows[0] for row in rows), (device.name, labels)

    def test_wide_class_sweeps_one_trial_per_target(self):
        """A 7-LINEAR class sweeps uniform targets — one trial per rung of
        the T4's ladder — and lands on the ``incremental=False`` plan."""
        session = PlanSession()
        request = PlanRequest(
            model=wide_block_graph, cluster=make_cluster_a(1, 1),
            profile_repeats=1,
        )

        def allocate(incremental):
            replayer = session.prepare(request).replayer
            replayer.incremental = incremental
            dag = replayer.dags[1]
            indicator = VarianceIndicator(
                dag, synthesize_stats(dag, seed=0), gamma_for_loss("ce", 4096)
            )
            allocator = _TrialCountingAllocator(replayer, {"T4": indicator})
            plan, report = allocator.allocate()
            return plan, report, allocator.bruteforce_trials

        plan, report, trials = allocate(True)
        plan_ref, report_ref, trials_ref = allocate(False)
        dag = wide_block_graph()
        assert len(decision_ops(dag, T4, group_blocks(dag)["blk0"])) == 7
        assert 7 > MAX_BRUTEFORCE_OPS
        assert trials == trials_ref == len(T4.supported_precisions())
        assert plan.to_dict() == plan_ref.to_dict()
        assert report.initial_counts == report_ref.initial_counts
        assert report.final_throughput == report_ref.final_throughput
