"""The gradient-compression planning axis: pricing, parity, allocation.

Pins the PR's three contracts:

* **level-0 parity** — an uncompressed configuration (``None``, all-zero
  levels, or a pinned ``(0,)`` ladder) is bit-identical to the
  pre-compression paths on every tier (object, kernel, engine, service);
* **compression-aware pricing** — per-bucket bit widths flow through
  :func:`bucket_comm_durations`, the collective models, and the kernel
  tier's compiled-global key, and recovery on the incremental replayer
  stays equivalent to the ``incremental=False`` reference with the axis
  engaged;
* **budgeted allocation** — the greedy ascent over compression levels.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_allocator_speed import SMALL_SETUP, _build_allocator
from repro.common.dtypes import Precision
from repro.core.compression import CompressionReport, allocate_compression
from repro.core.plan import COMPRESSION_KEY, PrecisionPlan
from repro.core.replayer import Replayer, bucket_comm_durations
from repro.engine.core import execute_global_dfg
from repro.hardware.cluster import make_cluster_a, make_cluster_a_multinode
from repro.models.trainable import mini_model_graph
from repro.parallel.comm_model import (
    COLLECTIVE_MODELS,
    CompressedMultiHopModel,
    FlatRingModel,
    HierarchicalModel,
    resolve_collective_model,
)
from repro.quant.qsgd import CompressionConfig, level_bits
from repro.service.fingerprint import request_token
from repro.session import PlanRequest, PlanSession
from tests.test_engine import _per_rank_gdfg


def _replayer(cluster=None, collective_model=None):
    cluster = cluster or make_cluster_a(1, 1)

    def builder():
        return mini_model_graph(
            "mini_bert", batch_size=4, width_scale=8, spatial_scale=4
        )

    request = PlanRequest(
        model=builder, cluster=cluster, profile_repeats=1,
        collective_model=collective_model,
    )
    return PlanSession().prepare(request).replayer


class TestCompressedPricing:
    def test_registry_appended(self):
        assert COLLECTIVE_MODELS["compressed_multihop"] is CompressedMultiHopModel
        assert isinstance(
            resolve_collective_model("compressed_multihop"), CompressedMultiHopModel
        )

    def test_unknown_name_guides_to_instance(self):
        with pytest.raises(ValueError) as exc:
            resolve_collective_model("dynamiq")
        msg = str(exc.value)
        assert "dynamiq" in msg and "CollectiveModel instance" in msg
        assert "compressed_multihop" in msg  # lists what is registered

    def test_level0_prices_exactly_like_hierarchical(self):
        cluster = make_cluster_a_multinode(gpus_per_node=2)
        nbytes = 25 * 1024**2
        hier = HierarchicalModel().allreduce_time(cluster, nbytes)
        comp = CompressedMultiHopModel()
        assert comp.allreduce_time(cluster, nbytes) == hier
        assert comp.allreduce_time_bits(cluster, nbytes, None) == hier
        assert comp.allreduce_time_bits(cluster, nbytes, 32) == hier

    def test_compressed_bits_cut_the_wire(self):
        cluster = make_cluster_a_multinode(gpus_per_node=2)
        nbytes = 25 * 1024**2
        comp = CompressedMultiHopModel()
        base = comp.allreduce_time_bits(cluster, nbytes, None)
        t8 = comp.allreduce_time_bits(cluster, nbytes, 8)
        t2 = comp.allreduce_time_bits(cluster, nbytes, 2)
        assert t2 < t8 < base

    def test_base_class_bits_fallback(self):
        # Every model gets compression pricing: wire shrink + 2 codec passes.
        cluster = make_cluster_a(1, 1)
        flat = FlatRingModel()
        nbytes = 4 * 1024**2
        assert flat.allreduce_time_bits(cluster, nbytes, None) == (
            flat.allreduce_time(cluster, nbytes)
        )
        assert flat.allreduce_time_bits(cluster, nbytes, 8) < (
            flat.allreduce_time(cluster, nbytes)
        )

    def test_bucket_comm_durations_bits(self):
        replayer = _replayer()
        locals_ = [replayer.local_dfg(r) for r in sorted(replayer.dags)]
        model = replayer.collective_model
        base = bucket_comm_durations(locals_, replayer.cluster, model)
        n = len(base)
        same = bucket_comm_durations(
            locals_, replayer.cluster, model, bucket_bits=(32,) * n
        )
        assert same == base  # 32-bit entries price verbatim
        packed = bucket_comm_durations(
            locals_, replayer.cluster, model, bucket_bits=(8,) * n
        )
        assert all(p < b for p, b in zip(packed, base))
        with pytest.raises(ValueError, match="bucket_bits"):
            bucket_comm_durations(
                locals_, replayer.cluster, model, bucket_bits=(8,) * (n + 1)
            )


class TestReplayerCompression:
    def test_all_zero_normalizes_to_none(self):
        replayer = _replayer()
        n = len(replayer.local_dfg(min(replayer.dags)).buckets)
        replayer.set_bucket_compression((0,) * n)
        assert replayer.bucket_compression is None
        replayer.set_bucket_compression([1] * n)
        assert replayer.bucket_compression == (1,) * n
        replayer.set_bucket_compression(None)
        assert replayer.bucket_compression is None
        with pytest.raises(ValueError, match="unknown compression level"):
            replayer.set_bucket_compression((0, 9))

    def test_simulate_round_trip_is_bit_identical(self):
        replayer = _replayer(collective_model=HierarchicalModel())
        base = replayer.simulate()
        n = len(replayer.local_dfg(min(replayer.dags)).buckets)
        replayer.set_bucket_compression((3,) * n)
        compressed = replayer.simulate()
        assert compressed.iteration_time <= base.iteration_time
        # Turning the axis back off reproduces the original bits exactly.
        replayer.set_bucket_compression((0,) * n)
        again = replayer.simulate()
        assert again.iteration_time.hex() == base.iteration_time.hex()
        assert again == base

    def test_kernel_and_object_tiers_agree_under_compression(self):
        replayer = _replayer(collective_model=CompressedMultiHopModel())
        n = len(replayer.local_dfg(min(replayer.dags)).buckets)
        replayer.set_bucket_compression((2,) * n)
        grouped = replayer.simulate()
        obj = execute_global_dfg(
            _per_rank_gdfg(replayer),
            replayer.cluster,
            memory=grouped.memory,
            collective_model=replayer.collective_model,
            bucket_bits=(level_bits(2),) * n,
        )
        assert grouped.iteration_time.hex() == obj.iteration_time.hex()
        assert grouped == obj
        reference = Replayer(
            replayer.cluster, replayer.dags,
            {r: m.catalog for r, m in replayer.mappers.items()},
            {r: m.cast_calc for r, m in replayer.mappers.items()},
            incremental=False, collective_model=replayer.collective_model,
        )
        reference.set_bucket_compression((2,) * n)
        assert reference.simulate() == grouped

    def test_recovery_matches_reference_with_compression(self):
        # incremental=False is the reference replayer: the plan found on
        # compressed buckets must match it bit for bit.
        def build(incremental):
            allocator = _build_allocator(incremental=incremental, **SMALL_SETUP)
            replayer = allocator.replayer
            n = len(replayer.local_dfg(min(replayer.dags)).buckets)
            replayer.set_bucket_compression((1,) * n)
            return allocator

        plan_i, report_i = build(True).allocate()
        plan_r, report_r = build(False).allocate()
        assert plan_i.to_dict() == plan_r.to_dict()
        assert report_i.final_throughput == report_r.final_throughput
        assert report_i.recovery_attempts == report_r.recovery_attempts


class TestAllocateCompression:
    def _variances(self, replayer, per_level):
        n = len(replayer.local_dfg(min(replayer.dags)).buckets)
        return [dict(per_level) for _ in range(n)]

    def test_zero_budget_stays_uncompressed(self):
        replayer = _replayer(
            make_cluster_a_multinode(gpus_per_node=2), CompressedMultiHopModel()
        )
        variances = self._variances(replayer, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0})
        levels, report = allocate_compression(replayer, variances, 0.0)
        assert set(levels) == {0}
        assert report.added_variance == 0.0
        assert report.allreduce_speedup == 1.0
        assert report.steps_accepted == 0

    def test_free_variance_goes_deepest(self):
        replayer = _replayer(
            make_cluster_a_multinode(gpus_per_node=2), CompressedMultiHopModel()
        )
        variances = self._variances(replayer, {lvl: 0.0 for lvl in (0, 1, 2, 3)})
        levels, report = allocate_compression(replayer, variances, 1.0)
        assert set(levels) == {3}  # every rung saves wire time here
        assert report.compressed_allreduce_seconds < report.base_allreduce_seconds
        assert report.added_variance == 0.0

    def test_budget_caps_the_climb(self):
        replayer = _replayer(
            make_cluster_a_multinode(gpus_per_node=2), CompressedMultiHopModel()
        )
        variances = self._variances(replayer, {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0})
        n = len(variances)
        # Budget for exactly one rung per bucket.
        levels, report = allocate_compression(replayer, variances, 1.0 * n)
        assert set(levels) == {1}
        assert report.added_variance == pytest.approx(1.0 * n)
        assert report.added_variance <= report.variance_budget

    def test_validates_shapes(self):
        replayer = _replayer()
        with pytest.raises(ValueError, match="bucket_variances"):
            allocate_compression(replayer, [], 1.0)
        with pytest.raises(ValueError, match="start at 0"):
            allocate_compression(replayer, [], 1.0, levels=(1, 2))

    def test_report_summary(self):
        report = CompressionReport(
            levels=(0, 2),
            base_allreduce_seconds=2e-3,
            compressed_allreduce_seconds=1e-3,
            added_variance=0.5,
            variance_budget=1.0,
        )
        assert report.allreduce_speedup == pytest.approx(2.0)
        assert "L0x1" in report.summary() and "L2x1" in report.summary()


class TestPlanPlumbing:
    def test_plan_round_trip_carries_levels(self):
        plan = PrecisionPlan(assignments={"T4": {"op": Precision.FP16}})
        plan.bucket_compression = (0, 2, 1)
        d = plan.to_dict()
        assert d[COMPRESSION_KEY] == [0, 2, 1]
        back = PrecisionPlan.from_dict(d)
        assert back.bucket_compression == (0, 2, 1)
        assert back.assignments == plan.assignments

    def test_uncompressed_plan_dict_has_no_sentinel(self):
        plan = PrecisionPlan(assignments={})
        assert COMPRESSION_KEY not in plan.to_dict()
        assert PrecisionPlan.from_dict(plan.to_dict()).bucket_compression is None

    def test_request_token_carries_compression(self):
        base = PlanRequest(model="mini_bert", strategy="qsync+qsgd")
        pinned = PlanRequest(
            model="mini_bert",
            strategy="qsync+qsgd",
            compression=CompressionConfig(levels=(0, 1)),
        )
        assert request_token(base) != request_token(pinned)
        assert request_token(pinned) == request_token(
            PlanRequest(
                model="mini_bert",
                strategy="qsync+qsgd",
                compression=CompressionConfig(levels=(0, 1)),
            )
        )

    def test_request_validates_compression_type(self):
        with pytest.raises(ValueError, match="CompressionConfig"):
            PlanRequest(model="mini_bert", compression=(0, 1))


class TestStrategyParity:
    def test_pinned_ladder_matches_qsync_bitwise(self):
        session = PlanSession()
        base = dict(
            model="mini_bert",
            model_kwargs={"batch_size": 4, "width_scale": 4, "spatial_scale": 4},
            cluster="cluster_a_4+4",
            collective_model="compressed_multihop",
            profile_repeats=1,
        )
        a = session.plan(PlanRequest(strategy="qsync", **base))
        b = session.plan(
            PlanRequest(
                strategy="qsync+qsgd",
                compression=CompressionConfig(levels=(0,)),
                **base,
            )
        )
        assert a.plan.to_dict() == b.plan.to_dict()
        assert (
            a.report.final_simulation.iteration_time.hex()
            == b.report.final_simulation.iteration_time.hex()
        )
        assert b.plan.bucket_compression is None
        assert b.compression is not None
        assert b.compression.levels and set(b.compression.levels) == {0}
