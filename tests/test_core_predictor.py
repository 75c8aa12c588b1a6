"""Tests for the Predictor: indicator, DFGs, cost mapper, replayer, simulator."""

import pytest

from repro.backend import LPBackend
from repro.common import Precision, new_rng
from repro.core import (
    CostMapper,
    GlobalDFG,
    GroundTruthSimulator,
    LocalDFG,
    VarianceIndicator,
    effective_precisions,
    grad_precision,
    output_precision,
)
from repro.core.dfg import CommBucket, DFGNode, NodeKind, assign_buckets
from repro.core.indicator import gamma_for_loss
from repro.graph.dag import PrecisionDAG
from repro.hardware import T4, make_cluster_a
from repro.models import mini_model_graph
from repro.profiling import CastCostCalculator, profile_operator_costs, synthesize_stats
from repro.session import PlanRequest, PlanSession


@pytest.fixture(scope="module")
def bert_dag():
    # Production-scale shapes (dim 768, seq 128) on the mini topology.
    return mini_model_graph("mini_bert", batch_size=8, width_scale=24, spatial_scale=8)


@pytest.fixture(scope="module")
def t4_backend():
    return LPBackend(T4)


@pytest.fixture(scope="module")
def t4_catalog(bert_dag, t4_backend):
    return profile_operator_costs(bert_dag, t4_backend, repeats=2)


@pytest.fixture(scope="module")
def t4_casts(t4_backend):
    return CastCostCalculator(t4_backend)


class TestPrecisionRules:
    def test_int8_outputs_fp32(self):
        assert output_precision(Precision.INT8) is Precision.FP32

    def test_fp16_outputs_fp16(self):
        assert output_precision(Precision.FP16) is Precision.FP16

    def test_int8_backward_fp16(self):
        assert grad_precision(Precision.INT8) is Precision.FP16
        assert grad_precision(Precision.FP16) is Precision.FP16
        assert grad_precision(Precision.FP32) is Precision.FP32

    def test_dependent_precision_follows_widest_input(self, bert_dag):
        dag = bert_dag.copy()
        # blocks.0.add1 has inputs attn.out_proj (linear) and embed path.
        dag.set_precision("blocks.0.attn.out_proj", Precision.FP16)
        eff = effective_precisions(dag)
        # out_proj emits FP16 but the residual input is FP32 -> widest wins.
        assert eff["blocks.0.add1"] is Precision.FP32

    def test_cascade_through_dependent_chain(self):
        from repro.graph.ops import OperatorSpec, OpKind

        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("input", OpKind.INPUT, (4, 8)))
        dag.add_op(
            OperatorSpec("fc", OpKind.LINEAR, (4, 8), weight_shape=(8, 8), flops=512),
            inputs=["input"],
        )
        dag.add_op(OperatorSpec("relu", OpKind.RELU, (4, 8), flops=32), inputs=["fc"])
        dag.add_op(OperatorSpec("drop", OpKind.DROPOUT, (4, 8), flops=32), inputs=["relu"])
        dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["drop"])
        dag.set_precision("fc", Precision.FP16)
        eff = effective_precisions(dag)
        assert eff["relu"] is Precision.FP16
        assert eff["drop"] is Precision.FP16
        # INT8 output is FP32 -> cascade stops.
        dag.set_precision("fc", Precision.INT8)
        eff = effective_precisions(dag)
        assert eff["relu"] is Precision.FP32


class TestIndicator:
    @pytest.fixture(scope="class")
    def indicator(self, bert_dag):
        stats = synthesize_stats(bert_dag, seed=0)
        return VarianceIndicator(bert_dag, stats, gamma=gamma_for_loss("ce", 8))

    def test_fp32_is_zero(self, indicator):
        assert indicator.omega("blocks.0.fc1", Precision.FP32) == 0.0

    def test_int8_more_sensitive_than_fp16(self, indicator, bert_dag):
        for op in ("blocks.0.fc1", "blocks.1.attn.q_proj", "head"):
            assert indicator.omega(op, Precision.INT8) > indicator.omega(
                op, Precision.FP16
            ) > 0.0

    def test_unknown_op_raises(self, indicator):
        with pytest.raises(KeyError):
            indicator.omega("ghost", Precision.FP16)

    def test_ranking_sorted_descending(self, indicator):
        ranking = indicator.ranking(Precision.INT8)
        values = [v for _, v in ranking]
        assert values == sorted(values, reverse=True)

    def test_relative_ranks_complete(self, indicator, bert_dag):
        ranks = indicator.relative_ranks(Precision.FP16)
        weighted = [n for n in bert_dag.adjustable_ops() if bert_dag.spec(n).has_weight]
        assert set(ranks) == set(weighted)
        assert sorted(ranks.values()) == list(range(len(weighted)))

    def test_gamma_for_loss(self):
        assert gamma_for_loss("ce", 100) == pytest.approx(0.01)
        assert gamma_for_loss("mse", 100) == pytest.approx(0.02)
        with pytest.raises(ValueError):
            gamma_for_loss("hinge", 4)

    def test_real_stats_indicator(self):
        """Indicator built from real instrumented statistics works too."""
        from repro.models import make_mini_model
        from repro.profiling import collect_model_stats
        from repro.tensor import Tensor, functional as F

        model = make_mini_model("mini_vggbn")
        dag = mini_model_graph("mini_vggbn", batch_size=8)
        rng = new_rng(0)

        def data():
            while True:
                yield Tensor(rng.normal(size=(8, 3, 16, 16))), rng.integers(0, 10, 8)

        stats = collect_model_stats(
            model, data(), lambda m, x, y: F.cross_entropy(m(x), y), iterations=2
        )
        ind = VarianceIndicator(dag, stats, gamma_for_loss("ce", 8))
        for op in stats:
            assert ind.omega(op, Precision.INT8) > 0


class TestDFG:
    def test_bucket_assignment_caps(self):
        ops = [(f"op{i}", 10 * 1024**2) for i in range(6)]
        buckets = assign_buckets(ops, bucket_cap_bytes=25 * 1024**2)
        assert len(buckets) == 2
        assert buckets[0].nbytes == 30 * 1024**2

    def test_bucket_assignment_remainder(self):
        buckets = assign_buckets([("a", 1000)], bucket_cap_bytes=25 * 1024**2)
        assert len(buckets) == 1
        assert buckets[0].ops == ("a",)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            DFGNode("x", NodeKind.FORWARD, -1.0)

    def test_bucket_ready_times_ordering(self):
        dfg = LocalDFG("T4", 0)
        dfg.add_forward(DFGNode("f", NodeKind.FORWARD, 1.0))
        for i in range(4):
            dfg.add_backward(DFGNode(f"b{i}", NodeKind.BACKWARD, 0.5, op=f"op{i}"))
        buckets = [CommBucket(0, 100, ("op1",)), CommBucket(1, 100, ("op3",))]
        dfg.set_buckets(buckets, {0: 1, 1: 3})
        ready = dfg.bucket_ready_times()
        assert ready[0] == pytest.approx(2.0)  # fwd 1.0 + two bwd
        assert ready[1] == pytest.approx(3.0)

    def test_global_dfg_requires_matching_buckets(self):
        a, b = LocalDFG("T4", 0), LocalDFG("V100", 1)
        a.set_buckets([CommBucket(0, 10, ("x",))], {0: 0})
        with pytest.raises(ValueError):
            GlobalDFG([a, b])


class TestCostMapper:
    def test_fp32_plan_has_no_casts(self, bert_dag, t4_catalog, t4_casts):
        mapper = CostMapper(bert_dag.copy(), t4_catalog, t4_casts, device=T4)
        dfg = mapper.build_local_dfg("T4", 0)
        assert dfg.cast_time() == 0.0
        assert dfg.forward_time > 0
        assert dfg.backward_time > dfg.forward_time

    def test_quantized_plan_adds_casts(self, bert_dag, t4_catalog, t4_casts):
        dag = bert_dag.copy()
        for op in dag.adjustable_ops():
            if dag.spec(op).has_weight:
                dag.set_precision(op, Precision.INT8)
        mapper = CostMapper(dag, t4_catalog, t4_casts, device=T4)
        dfg = mapper.build_local_dfg("T4", 0)
        assert dfg.cast_time() > 0.0

    def test_fp16_reduces_compute_time(self, bert_dag, t4_catalog, t4_casts):
        base = CostMapper(bert_dag.copy(), t4_catalog, t4_casts, device=T4)
        t_fp32 = base.build_local_dfg("T4", 0).compute_time
        dag = bert_dag.copy()
        for op in dag.adjustable_ops():
            if dag.spec(op).has_weight:
                dag.set_precision(op, Precision.FP16)
        quant = CostMapper(dag, t4_catalog, t4_casts, device=T4)
        t_fp16 = quant.build_local_dfg("T4", 0).compute_time
        assert t_fp16 < t_fp32

    def test_apply_change_equals_full_rebuild(self, bert_dag, t4_catalog, t4_casts):
        """Algorithm 1 incremental == full recompute."""
        dag_a = bert_dag.copy()
        mapper_a = CostMapper(dag_a, t4_catalog, t4_casts, device=T4)
        mapper_a.build_local_dfg("T4", 0)
        dag_a.set_precision("blocks.0.fc1", Precision.FP16)
        dfg_inc = mapper_a.current_dfg("T4", 0)
        assert mapper_a.incremental_updates == 1

        dag_b = bert_dag.copy()
        dag_b.set_precision("blocks.0.fc1", Precision.FP16)
        mapper_b = CostMapper(dag_b, t4_catalog, t4_casts, device=T4)
        dfg_full = mapper_b.build_local_dfg("T4", 0)

        assert dfg_inc.compute_time == pytest.approx(dfg_full.compute_time)
        assert dfg_inc.cast_time() == pytest.approx(dfg_full.cast_time())

    def test_buckets_cover_all_weighted_ops(self, bert_dag, t4_catalog, t4_casts):
        mapper = CostMapper(bert_dag.copy(), t4_catalog, t4_casts, device=T4)
        dfg = mapper.build_local_dfg("T4", 0)
        bucketed = {op for b in dfg.buckets for op in b.ops}
        weighted = set(bert_dag.weighted_ops())
        assert bucketed == weighted


class TestReplayer:
    @pytest.fixture(scope="class")
    def replayer(self):
        cluster = make_cluster_a(2, 2)
        builder = lambda: mini_model_graph(
            "mini_bert", batch_size=8, width_scale=24, spatial_scale=8
        )
        return PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=2)
        ).replayer

    def test_fp32_simulation_baseline(self, replayer):
        sim = replayer.simulate()
        assert sim.iteration_time > 0
        assert sim.throughput > 0
        assert len(sim.per_device_compute) == 4

    def test_t4_is_slower_at_fp32(self, replayer):
        sim = replayer.simulate()
        v100_time = sim.per_device_compute[0]
        t4_time = sim.per_device_compute[2]
        assert t4_time > v100_time

    def test_quantizing_t4_reduces_iteration_time(self, replayer):
        base = replayer.simulate().iteration_time
        dag = replayer.dags[2]
        plan = {
            op: Precision.FP16
            for op in dag.adjustable_ops()
            if dag.spec(op).has_weight
        }
        replayer.apply_plan(2, plan)
        replayer.apply_plan(3, plan)
        quant = replayer.simulate().iteration_time
        # Restore.
        fp32 = {op: Precision.FP32 for op in plan}
        replayer.apply_plan(2, fp32)
        replayer.apply_plan(3, fp32)
        assert quant < base

    def test_timeline_collection(self, replayer):
        sim = replayer.simulate()
        assert len(sim.timeline) > 0
        streams = {e.stream for e in sim.timeline}
        assert streams == {"cuda", "comm"}
        for e in sim.timeline:
            assert e.end >= e.start

    def test_memory_reported_per_rank(self, replayer):
        sim = replayer.simulate()
        assert set(sim.memory) == {0, 1, 2, 3}
        assert all(m.total > 0 for m in sim.memory.values())

    def test_comm_waits_nonnegative(self, replayer):
        sim = replayer.simulate()
        assert all(w >= 0 for w in sim.comm_wait_time.values())


class TestGroundTruthSimulator:
    def test_replayer_error_under_5_percent(self):
        """The headline predictor claim: < 5% average throughput error."""
        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_bert", batch_size=8, width_scale=24, spatial_scale=8
        )
        ctx = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=3)
        )
        replayer, backends = ctx.replayer, ctx.backends
        # Half-linears configuration (Table III flavor).
        dag_t4 = replayer.dags[1]
        plan = {
            op: Precision.FP16
            for op in dag_t4.adjustable_ops()
            if dag_t4.spec(op).has_weight
        }
        replayer.apply_plan(1, plan)
        predicted = replayer.simulate().iteration_time

        gt = GroundTruthSimulator(cluster, replayer.dags, backends, seed=0)
        actual = gt.run(iterations=5).iteration_time
        err = abs(predicted - actual) / actual
        assert err < 0.05

    def test_ground_truth_deterministic_per_seed(self):
        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_vgg", batch_size=8, width_scale=8, spatial_scale=4
        )
        ctx = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
        )
        replayer, backends = ctx.replayer, ctx.backends
        gt1 = GroundTruthSimulator(cluster, replayer.dags, backends, seed=3)
        gt2 = GroundTruthSimulator(cluster, replayer.dags, backends, seed=3)
        assert gt1.run(2).iteration_time == gt2.run(2).iteration_time

    def test_per_iteration_fields_describe_the_last_iteration(self):
        """``run`` averages iteration times; every per-iteration field,
        timeline included, is the last iteration's."""
        from repro.engine.core import execute_global_dfg

        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_vgg", batch_size=8, width_scale=8, spatial_scale=4
        )
        ctx = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
        )
        gt = GroundTruthSimulator(cluster, ctx.replayer.dags, ctx.backends, seed=3)
        sim = gt.run(3)
        first, _, last = (
            execute_global_dfg(
                GlobalDFG([gt._build_local(w.rank, it) for w in cluster.workers]),
                cluster,
            )
            for it in range(3)
        )
        assert sim.per_device_compute == last.per_device_compute
        assert sim.comm_wait_time == last.comm_wait_time
        assert sim.comm_windows == last.comm_windows
        assert sim.timeline == last.timeline
        assert sim.timeline != first.timeline

    def test_contention_slows_ground_truth(self):
        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_vgg", batch_size=8, width_scale=8, spatial_scale=4
        )
        ctx = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
        )
        replayer, backends = ctx.replayer, ctx.backends
        lo = GroundTruthSimulator(
            cluster, replayer.dags, backends, comm_contention=0.0, seed=0
        ).run(2)
        hi = GroundTruthSimulator(
            cluster, replayer.dags, backends, comm_contention=0.30, seed=0
        ).run(2)
        assert hi.iteration_time > lo.iteration_time
