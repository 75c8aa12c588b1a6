"""Tests for the §VIII profiling-free structural indicator."""

import pytest
from scipy.stats import spearmanr

from repro.common import Precision
from repro.core.cheap_indicator import StructuralIndicator
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.experiments.protocol import collect_executable_stats
from repro.models import mini_model_graph


class TestStructuralIndicator:
    @pytest.fixture(scope="class")
    def dag(self):
        return mini_model_graph("mini_vggbn", batch_size=16)

    def test_protocol_conformance(self, dag):
        ind = StructuralIndicator(dag, gamma_for_loss("ce", 16))
        op = next(iter(ind._stats))
        assert ind.omega(op, Precision.FP32) == 0.0
        assert ind.omega(op, Precision.INT8) > ind.omega(op, Precision.FP16) > 0

    def test_requires_valid_decay(self, dag):
        with pytest.raises(ValueError):
            StructuralIndicator(dag, 0.1, grad_decay=0.0)
        with pytest.raises(ValueError):
            StructuralIndicator(dag, 0.1, grad_decay=1.5)

    def test_zero_profiling_cost(self, dag):
        """The whole point: construction touches no training machinery."""
        ind = StructuralIndicator(dag, gamma_for_loss("ce", 16))
        assert len(ind._stats) == 6  # 5 convs + classifier

    def test_correlates_with_profiled_indicator(self, dag):
        """Fig. 8's licence: the structural prior must rank operators
        similarly to the profiled indicator (strong rank correlation)."""
        gamma = gamma_for_loss("ce", 16)
        cheap = StructuralIndicator(dag, gamma)
        stats = collect_executable_stats("mini_vggbn", iterations=8)
        full = VarianceIndicator(dag, stats, gamma)
        ops = sorted(cheap._stats)
        for prec in (Precision.INT8, Precision.FP16):
            a = [cheap.omega(op, prec) for op in ops]
            b = [full.omega(op, prec) for op in ops]
            rho = spearmanr(a, b).statistic
            assert rho > 0.6, f"{prec}: rho={rho}"

    def test_usable_by_allocator(self):
        from repro.core.allocator import Allocator, AllocatorConfig
        from repro.hardware import make_cluster_a
        from repro.session import PlanRequest, PlanSession

        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_bert", batch_size=8, width_scale=24, spatial_scale=8
        )
        replayer = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
        ).replayer
        ind = StructuralIndicator(replayer.dags[1], gamma_for_loss("ce", 8))
        allocator = Allocator(
            replayer, {"T4": ind},
            config=AllocatorConfig(max_recovery_steps=50),
        )
        plan, report = allocator.allocate()
        assert plan.for_device("T4")
        assert report.final_throughput >= 0.99 * report.t_min
