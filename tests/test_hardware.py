"""Tests for repro.hardware: devices, sharing, clusters."""

import pytest

from repro.common import GB, Precision
from repro.common.errors import UnsupportedPrecisionError
from repro.common.units import TFLOPS
from repro.hardware import (
    A10,
    T4,
    V100,
    Cluster,
    SharingMode,
    Worker,
    get_device,
    make_cluster_a,
    make_cluster_b,
)


class TestDeviceSpecs:
    def test_table1_v100(self):
        assert V100.peak_flops[Precision.FP32] == pytest.approx(15.7 * TFLOPS)
        assert V100.peak_flops[Precision.FP16] == pytest.approx(125 * TFLOPS)
        assert not V100.supports(Precision.INT8)
        assert V100.memory_bytes == 32 * GB

    def test_table1_t4(self):
        assert T4.peak_flops[Precision.FP32] == pytest.approx(8.1 * TFLOPS)
        assert T4.peak_flops[Precision.INT8] == pytest.approx(130 * TFLOPS)
        assert T4.memory_bytes == 16 * GB

    def test_v100_is_training_gpu(self):
        assert V100.is_training_gpu
        assert not T4.is_training_gpu
        assert not A10.is_training_gpu

    def test_lowest_precision(self):
        assert T4.supported_precisions()[0] is Precision.INT8
        assert V100.supported_precisions()[0] is Precision.FP16

    def test_unsupported_precision_raises(self):
        with pytest.raises(UnsupportedPrecisionError):
            V100.flops_at(Precision.INT8)

    def test_registry_lookup(self):
        assert get_device("t4") is T4
        assert get_device("V100") is V100
        with pytest.raises(KeyError):
            get_device("H100")


class TestSharing:
    def test_partial_sharing_caps_memory_only_by_default(self):
        shared = T4.with_sharing(0.3)
        assert shared.sharing is SharingMode.PARTIAL
        assert shared.available_memory == int(16 * GB * 0.3)
        assert shared.flops_at(Precision.INT8) == T4.flops_at(Precision.INT8)

    def test_partial_sharing_can_cap_compute(self):
        shared = T4.with_sharing(0.5, compute_fraction=0.5)
        assert shared.flops_at(Precision.FP16) == pytest.approx(
            0.5 * T4.flops_at(Precision.FP16)
        )
        assert shared.effective_bandwidth == pytest.approx(0.5 * T4.mem_bandwidth)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            T4.with_sharing(0.0)
        with pytest.raises(ValueError):
            T4.with_sharing(1.5)

    def test_full_sharing_requires_unit_fractions(self):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(T4, memory_fraction=0.5)


class TestCluster:
    def test_cluster_a_composition(self):
        c = make_cluster_a(2, 2)
        assert c.size == 4
        assert len(c.training_workers) == 2
        assert len(c.inference_workers) == 2
        assert all(w.device.name == "V100" for w in c.training_workers)
        assert all(w.device.name == "T4" for w in c.inference_workers)

    def test_cluster_b_memory_cap(self):
        c = make_cluster_b(2, 2, memory_ratio=0.3)
        t4 = c.inference_workers[0].device
        assert t4.available_memory == int(16 * GB * 0.3)

    def test_bottleneck_is_inference_link(self):
        c = make_cluster_a(2, 2)
        assert c.bottleneck_bandwidth == min(w.link_bandwidth for w in c.workers)
        assert c.bottleneck_bandwidth == c.inference_workers[0].link_bandwidth

    def test_allreduce_time_scaling(self):
        c = make_cluster_a(2, 2)
        t_small = c.allreduce_time(1_000_000)
        t_big = c.allreduce_time(100_000_000)
        assert t_big > t_small > 0

    def test_allreduce_single_worker_free(self):
        w = Worker(rank=0, device=V100, link_bandwidth=1e9)
        c = Cluster(name="solo", workers=(w,))
        assert c.allreduce_time(1e9) == 0.0

    def test_allreduce_matches_ring_formula(self):
        c = make_cluster_a(2, 2)
        k = c.size
        nbytes = 50e6
        expected = 2 * (k - 1) / k * nbytes / c.bottleneck_bandwidth
        expected += 2 * (k - 1) * c.collective_latency
        assert c.allreduce_time(nbytes) == pytest.approx(expected)

    def test_ranks_may_be_non_contiguous_but_not_duplicated(self):
        w0 = Worker(rank=0, device=V100, link_bandwidth=1e9)
        w2 = Worker(rank=2, device=T4, link_bandwidth=1e9)
        # Gaps are legal (a sub-cluster view after decommissioning rank 1)…
        c = Cluster(name="gap", workers=(w0, w2))
        assert [w.rank for w in c.workers] == [0, 2]
        assert c.allreduce_time(1_000_000) > 0
        # …duplicates and descending orders are not.
        with pytest.raises(ValueError, match="ranks"):
            Cluster(name="dup", workers=(w0, w0))
        with pytest.raises(ValueError, match="ranks"):
            Cluster(name="desc", workers=(w2, w0))

    def test_homogeneous_subsets(self):
        c = make_cluster_a(3, 2)
        subsets = c.homogeneous_subsets()
        assert len(subsets["V100"]) == 3
        assert len(subsets["T4"]) == 2

    def test_describe(self):
        assert make_cluster_a(2, 2).describe() == "ClusterA[2xV100 + 2xT4]"


class TestClusterValidation:
    def test_cluster_b_memory_ratio_bounds(self):
        with pytest.raises(ValueError, match="memory_ratio"):
            make_cluster_b(2, 2, memory_ratio=0.0)
        with pytest.raises(ValueError, match="memory_ratio"):
            make_cluster_b(2, 2, memory_ratio=1.5)
        with pytest.raises(ValueError, match="memory_ratio"):
            make_cluster_b(2, 2, memory_ratio=-0.3)
        # The full loan is a legal boundary (ClusterA's FULL-sharing limit).
        assert make_cluster_b(1, 1, memory_ratio=1.0).size == 2

    def test_nonpositive_link_bandwidth_rejected(self):
        w0 = Worker(rank=0, device=V100, link_bandwidth=1e9)
        for bad in (0.0, -32.0):
            w1 = Worker(rank=1, device=T4, link_bandwidth=bad)
            with pytest.raises(ValueError, match="link_bandwidth"):
                Cluster(name="bad", workers=(w0, w1))

    def test_nonpositive_collective_latency_rejected(self):
        w = Worker(rank=0, device=V100, link_bandwidth=1e9)
        for bad in (0.0, -30e-6):
            with pytest.raises(ValueError, match="collective_latency"):
                Cluster(name="bad", workers=(w,), collective_latency=bad)
