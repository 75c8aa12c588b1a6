"""Tests for the comparison baselines: UP, DBS, Hessian, Random, Dpro."""

import pytest

from repro.baselines import (
    DproReplayer,
    HessianIndicator,
    RandomIndicator,
    dbs_batch_sizes,
    hessian_top_eigenvalues,
    uniform_precision_plan,
)
from repro.common import Precision, new_rng
from repro.common.errors import InfeasiblePlanError
from repro.hardware import T4, make_cluster_a
from repro.models import make_mini_model, mini_model_graph
from repro.profiling import collect_model_stats
from repro.session import PlanRequest, PlanSession
from repro.tensor import Tensor, functional as F


def scaled_vggbn(batch=256):
    return mini_model_graph("mini_vggbn", batch_size=batch, width_scale=16, spatial_scale=4)


class TestUniformPrecision:
    def test_plenty_of_memory_keeps_fp32(self):
        dag = mini_model_graph("mini_vgg", batch_size=8)
        plan = uniform_precision_plan(dag, T4)
        assert all(p is Precision.FP32 for p in plan.values())

    def test_memory_pressure_lowers_uniformly(self):
        # batch 512 at this scale: FP16 ~7.2 GiB, INT8 ~4.6 GiB -> a 30%
        # T4 (4.8 GiB) admits only uniform INT8.
        dag = scaled_vggbn(batch=512)
        t4_small = T4.with_sharing(0.3)
        plan = uniform_precision_plan(dag, t4_small)
        precisions = {p for op, p in plan.items() if dag.spec(op).has_weight}
        assert precisions == {Precision.INT8}

    def test_softmax_keeps_fp32_even_under_pressure(self):
        dag = mini_model_graph("mini_bert", batch_size=64, width_scale=24,
                               spatial_scale=16)
        t4_small = T4.with_sharing(0.3)
        plan = uniform_precision_plan(dag, t4_small)
        softmax_ops = [op for op in plan if "softmax" in op]
        assert all(plan[op] is Precision.FP32 for op in softmax_ops)

    def test_infeasible_raises(self):
        dag = scaled_vggbn(batch=1024)
        with pytest.raises(InfeasiblePlanError):
            uniform_precision_plan(dag, T4.with_sharing(0.01))


class TestDBS:
    def test_split_proportional_to_speed(self):
        sizes = dbs_batch_sizes(120, per_sample_times=[1.0, 2.0])
        assert sum(sizes) == 120
        assert sizes[0] == pytest.approx(80, abs=2)
        assert sizes[1] == pytest.approx(40, abs=2)

    def test_equal_speed_equal_split(self):
        sizes = dbs_batch_sizes(128, [1.0, 1.0, 1.0, 1.0])
        assert sizes == [32, 32, 32, 32]

    def test_global_batch_preserved_always(self):
        for gb in (64, 96, 120):
            sizes = dbs_batch_sizes(gb, [1.0, 1.7, 2.5])
            assert sum(sizes) == gb

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            dbs_batch_sizes(10, [1.0, 0.0])


class TestRandomIndicator:
    def test_values_halve_up_the_ladder(self):
        ind = RandomIndicator(["a", "b"], seed=0)
        assert ind.omega("a", Precision.INT8) == 2 * ind.omega("a", Precision.FP16)
        assert ind.omega("a", Precision.FP32) == 0.0

    def test_deterministic_per_seed(self):
        a = RandomIndicator(["x"], seed=1).omega("x", Precision.INT8)
        b = RandomIndicator(["x"], seed=1).omega("x", Precision.INT8)
        assert a == b

    def test_unknown_op(self):
        with pytest.raises(KeyError):
            RandomIndicator(["a"]).omega("z", Precision.INT8)


class TestHessianIndicator:
    @pytest.fixture(scope="class")
    def hessian_setup(self):
        model = make_mini_model("mini_vggbn", seed=0)
        rng = new_rng(0)
        x = Tensor(rng.normal(size=(16, 3, 16, 16)))
        y = rng.integers(0, 10, size=16)

        def loss_fn(m):
            return F.cross_entropy(m(x), y)

        eigs = hessian_top_eigenvalues(model, loss_fn, power_iters=4, seed=0)

        def data():
            while True:
                yield x, y

        stats = collect_model_stats(
            make_mini_model("mini_vggbn", seed=0), data(),
            lambda m, xx, yy: F.cross_entropy(m(xx), yy), iterations=2,
        )
        return eigs, stats

    def test_eigenvalues_nonnegative(self, hessian_setup):
        eigs, _ = hessian_setup
        assert len(eigs) == 6
        assert all(v >= 0 for v in eigs.values())

    def test_indicator_protocol(self, hessian_setup):
        eigs, stats = hessian_setup
        ind = HessianIndicator(eigs, stats)
        op = next(iter(eigs))
        assert ind.omega(op, Precision.FP32) == 0.0
        assert ind.omega(op, Precision.INT8) == 2 * ind.omega(op, Precision.FP16)

    def test_unknown_op(self, hessian_setup):
        eigs, stats = hessian_setup
        with pytest.raises(KeyError):
            HessianIndicator(eigs, stats).omega("ghost", Precision.INT8)


class TestDpro:
    def test_dpro_underestimates_quantized_latency(self):
        """Dpro ignores casting, so on an INT8-heavy plan it must predict a
        *lower* latency than the cast-aware Replayer (Table III's effect)."""
        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_bert", batch_size=12, width_scale=24, spatial_scale=8
        )
        ctx = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=2)
        )
        replayer, backends = ctx.replayer, ctx.backends
        dag = replayer.dags[1]
        plan = {
            op: Precision.INT8
            for op in dag.adjustable_ops()
            if dag.spec(op).has_weight
        }
        replayer.apply_plan(1, plan)
        qsync_sim = replayer.simulate()

        dpro = DproReplayer(
            cluster,
            replayer.dags,
            {0: replayer.mappers[0].catalog, 1: replayer.mappers[1].catalog},
        )
        dpro_sim = dpro.simulate()
        # Dpro misses the T4's casting time entirely: its prediction of the
        # quantized device's compute must undershoot the cast-aware one.
        assert dpro_sim.per_device_compute[1] < qsync_sim.per_device_compute[1]

    def test_dpro_agrees_on_fp32(self):
        """With no quantization there are no casts: both predictors see the
        same pure costs and should nearly coincide."""
        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_vgg", batch_size=32, width_scale=8, spatial_scale=4
        )
        replayer = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=2)
        ).replayer
        qsync_pred = replayer.simulate().iteration_time
        dpro = DproReplayer(
            cluster,
            replayer.dags,
            {0: replayer.mappers[0].catalog, 1: replayer.mappers[1].catalog},
        )
        assert dpro.simulate().iteration_time == pytest.approx(qsync_pred, rel=0.02)
