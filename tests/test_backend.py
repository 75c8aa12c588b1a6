"""Tests for the LP-PyTorch backend simulation."""

import pytest

from repro.backend import (
    AutoTuner,
    KernelRegistry,
    KernelTemplate,
    LPBackend,
    MinMaxKernel,
    SecurityWrapper,
    check_tensor_core_compat,
    dequant_cost,
    kernel_efficiency,
)
from repro.common import MB, Precision, new_rng
from repro.common.errors import KernelConfigError
from repro.common.rng import derive_seed
from repro.graph.ops import OperatorSpec, OpKind
from repro.hardware import A10, T4, V100


class TestKernelTemplates:
    def test_valid_template(self):
        t = KernelTemplate((128, 128, 32), (64, 64, 32), (16, 8, 8))
        assert "tb128x128x32" in t.label

    def test_warp_must_divide_threadblock(self):
        with pytest.raises(KernelConfigError):
            KernelTemplate((128, 128, 32), (48, 64, 32), (16, 8, 8))

    def test_instruction_must_divide_warp(self):
        with pytest.raises(KernelConfigError):
            KernelTemplate((128, 128, 32), (64, 64, 32), (48, 8, 8))

    def test_stage_bounds(self):
        with pytest.raises(KernelConfigError):
            KernelTemplate((64, 64, 32), (32, 32, 32), (16, 8, 8), stages=1)

    def test_registry_no_int8_tensorcore_on_sm70(self):
        cands = KernelRegistry.candidates("sm70", OpKind.LINEAR, Precision.INT8)
        assert all(not c.use_tensor_cores for c in cands)

    def test_registry_int8_tensorcore_on_sm75(self):
        cands = KernelRegistry.candidates("sm75", OpKind.LINEAR, Precision.INT8)
        assert any(c.use_tensor_cores for c in cands)

    def test_elementwise_ops_simt_only(self):
        cands = KernelRegistry.candidates("sm80", OpKind.RELU, Precision.FP16)
        assert all(not c.use_tensor_cores for c in cands)

    def test_efficiency_in_unit_range(self):
        for t in KernelRegistry.candidates("sm75", OpKind.LINEAR, Precision.FP16):
            if t.use_tensor_cores:
                eff = kernel_efficiency("sm75", OpKind.LINEAR, Precision.FP16,
                                        t, (4096, 4096, 4096))
                assert 0 < eff < 1

    def test_small_problem_lower_efficiency(self):
        t = KernelRegistry.candidates("sm75", OpKind.LINEAR, Precision.FP16)[2]
        big = kernel_efficiency("sm75", OpKind.LINEAR, Precision.FP16, t,
                                (8192, 8192, 1024))
        small = kernel_efficiency("sm75", OpKind.LINEAR, Precision.FP16, t,
                                  (64, 64, 64))
        assert small < big

    def test_tensor_core_requires_support(self):
        t = [c for c in KernelRegistry.candidates("sm75", OpKind.LINEAR, Precision.INT8)
             if c.use_tensor_cores][0]
        with pytest.raises(KernelConfigError):
            kernel_efficiency("sm70", OpKind.LINEAR, Precision.INT8, t, (128, 128, 128))


class TestAutoTuner:
    def test_picks_tensor_core_for_big_gemm(self):
        tuner = AutoTuner("sm75")
        result = tuner.tune(OpKind.LINEAR, Precision.FP16, (4096, 4096, 1024))
        assert result.template.use_tensor_cores
        assert result.candidates_tried > 1

    def test_caches_by_bucket(self):
        tuner = AutoTuner("sm75")
        tuner.tune(OpKind.LINEAR, Precision.FP16, (4096, 4096, 1024))
        n = tuner.cache_size()
        tuner.tune(OpKind.LINEAR, Precision.FP16, (4090, 4001, 1020))  # same bucket
        assert tuner.cache_size() == n

    def test_deterministic(self):
        a = AutoTuner("sm80", seed=3).tune(OpKind.CONV2D, Precision.INT8, (2048, 512, 1152))
        b = AutoTuner("sm80", seed=3).tune(OpKind.CONV2D, Precision.INT8, (2048, 512, 1152))
        assert a.template == b.template


class TestMinMax:
    def test_optimized_faster(self):
        mk = MinMaxKernel(T4, optimized=True)
        nbytes = 64 * 56 * 56 * 4
        assert mk.speedup_vs_vanilla(nbytes, rows=64) < 1.0

    def test_fig7a_overhead_reduction_band(self):
        # Paper reports 16-20% reduction for (64,56,56)-scale tensors.
        mk = MinMaxKernel(T4, optimized=True)
        for mult in (1, 2, 3, 4, 5):
            nbytes = mult * 64 * 56 * 56 * 4
            ratio = mk.speedup_vs_vanilla(nbytes, rows=mult * 64)
            assert 0.3 < ratio < 0.9

    def test_time_scales_with_size(self):
        mk = MinMaxKernel(T4)
        assert mk.time(100 * MB) > mk.time(1 * MB)


class TestFusion:
    def test_fused_is_free(self):
        assert dequant_cost(T4, 1_000_000, fused=True) == 0.0

    def test_unfused_costs_bandwidth(self):
        cost = dequant_cost(T4, 1_000_000, fused=False)
        assert cost > 1_000_000 * 8 / T4.mem_bandwidth * 0.9


class TestSecurityWrapper:
    def test_aligned_problem_accepted(self):
        assert check_tensor_core_compat((128, 128, 128), Precision.FP16, "sm75")

    def test_misaligned_rejected(self):
        assert not check_tensor_core_compat((128, 127, 128), Precision.FP16, "sm75")

    def test_unsupported_precision_rejected(self):
        assert not check_tensor_core_compat((128, 128, 128), Precision.INT8, "sm70")

    def test_wrap_pads_small_misalignment(self):
        w = SecurityWrapper("sm75")
        call = w.wrap(OpKind.LINEAR, Precision.FP16, (128, 1001, 512))
        assert call.use_tensor_cores
        assert call.padded_problem[1] == 1008
        assert call.padding_waste > 0

    def test_wrap_falls_back_on_heavy_padding(self):
        w = SecurityWrapper("sm75", max_padding_waste=0.01)
        call = w.wrap(OpKind.LINEAR, Precision.INT8, (4, 5, 3))
        assert not call.use_tensor_cores

    def test_elementwise_never_tensor_core(self):
        w = SecurityWrapper("sm80")
        call = w.wrap(OpKind.RELU, Precision.FP16, (1024, 1, 1))
        assert not call.use_tensor_cores


class TestLPBackend:
    def _conv_spec(self, batch=32):
        return OperatorSpec(
            "conv", OpKind.CONV2D, (batch, 128, 28, 28),
            weight_shape=(128, 128, 3, 3),
            flops=2.0 * batch * 128 * 28 * 28 * 128 * 9,
        )

    def test_lower_precision_faster_on_t4(self):
        be = LPBackend(T4)
        spec = self._conv_spec()
        elems = 32 * 128 * 28 * 28
        t32 = be.op_forward_time(spec, Precision.FP32, elems)
        t16 = be.op_forward_time(spec, Precision.FP16, elems)
        t8 = be.op_forward_time(spec, Precision.INT8, elems)
        assert t8 < t16 < t32

    def test_v100_rejects_int8(self):
        from repro.common.errors import UnsupportedPrecisionError

        be = LPBackend(V100)
        with pytest.raises(UnsupportedPrecisionError):
            be.op_forward_time(self._conv_spec(), Precision.INT8, 1000)

    def test_backward_slower_than_forward(self):
        be = LPBackend(T4)
        spec = self._conv_spec()
        elems = 32 * 128 * 28 * 28
        assert be.op_backward_time(spec, Precision.FP32, elems) > be.op_forward_time(
            spec, Precision.FP32, elems
        )

    def test_cast_time_zero_for_same_precision(self):
        be = LPBackend(T4)
        assert be.cast_time(Precision.FP16, Precision.FP16, 10**6) == 0.0

    def test_quantize_cast_more_expensive_than_float_cast(self):
        be = LPBackend(T4)
        t_fp = be.cast_time(Precision.FP32, Precision.FP16, 10**6)
        t_int = be.cast_time(Precision.FP32, Precision.INT8, 10**6)
        assert t_int > t_fp

    def test_fusion_removes_dequant_cost(self):
        fused = LPBackend(T4, dequant_fusion=True)
        unfused = LPBackend(T4, dequant_fusion=False)
        assert fused.cast_time(Precision.INT8, Precision.FP32, 10**6) == 0.0
        assert unfused.cast_time(Precision.INT8, Precision.FP32, 10**6) > 0.0

    def test_measurement_noise_small_and_deterministic(self):
        be = LPBackend(T4, measurement_noise=0.01)
        spec = self._conv_spec()
        m1 = be.measure_op_forward(spec, Precision.FP16, 10**6, rep=0)
        m2 = be.measure_op_forward(spec, Precision.FP16, 10**6, rep=0)
        m3 = be.measure_op_forward(spec, Precision.FP16, 10**6, rep=1)
        assert m1 == m2
        assert m1 != m3
        truth = be.op_forward_time(spec, Precision.FP16, 10**6)
        assert abs(m1 - truth) / truth < 0.05

    def test_samples_are_one_latency_times_keyed_jitter(self):
        be = LPBackend(T4, measurement_noise=0.01, seed=5)
        spec = self._conv_spec()
        reps = range(4)

        def jitter(*key):
            rng = new_rng(derive_seed(5, "measure", *key))
            return float(1.0 + 0.01 * rng.standard_normal())

        fp16, fp32, int8 = Precision.FP16, Precision.FP32, Precision.INT8
        fwd = be.op_forward_time(spec, fp16, 10**6)
        want = [fwd * jitter(spec.name, "fp16", "fwd", r) for r in reps]
        assert be.op_forward_samples(spec, fp16, 10**6, reps) == want
        assert [
            be.measure_op_forward(spec, fp16, 10**6, rep=r) for r in reps
        ] == want
        bwd = be.op_backward_time(spec, int8, 10**6)
        want = [bwd * jitter(spec.name, "int8", "bwd", r) for r in reps]
        assert be.op_backward_samples(spec, int8, 10**6, reps) == want
        assert [
            be.measure_op_backward(spec, int8, 10**6, rep=r) for r in reps
        ] == want
        cast = be.cast_time(fp32, int8, 4096, rows=8)
        want = [cast * jitter("fp32", "int8", 4096, r) for r in reps]
        assert be.cast_samples(fp32, int8, 4096, reps, rows=8) == want
        assert [
            be.measure_cast(fp32, int8, 4096, rows=8, rep=r) for r in reps
        ] == want

    def test_int8_extra_overhead_band_fig7b(self):
        """INT8 + casting vs FP16 on ResNet50-scale op: optimized backend
        keeps the gap small (paper: 10% -> 5%)."""
        spec = self._conv_spec(batch=256)
        elems = 256 * 128 * 28 * 28
        for device in (T4, A10):
            opt = LPBackend(device, dequant_fusion=True, optimized_minmax=True)
            t16 = opt.op_forward_time(spec, Precision.FP16, elems)
            t8 = opt.op_forward_time(spec, Precision.INT8, elems)
            t8 += opt.cast_time(Precision.FP32, Precision.INT8, elems)
            t8 += opt.cast_time(Precision.INT8, Precision.FP32, spec.output_elems)
            bare = LPBackend(device, dequant_fusion=False, optimized_minmax=False)
            t8_bare = bare.op_forward_time(spec, Precision.INT8, elems)
            t8_bare += bare.cast_time(Precision.FP32, Precision.INT8, elems)
            t8_bare += bare.cast_time(Precision.INT8, Precision.FP32, spec.output_elems)
            assert t8 < t8_bare
