"""The LP-PyTorch device facade.

One :class:`LPBackend` per device: it owns the autotuner, the security
wrapper and the MinMax/fusion configuration, and exposes the *measurement*
surface the profiler runs against — per-operator execution times and casting
times, via a roofline model (``max(compute, memory)`` + launch overhead)
using the tuned kernel efficiencies.

Two access styles:

* ``*_time`` — the deterministic analytical latency (the "true" mean);
* ``measure_*`` — the same latency with multiplicative run-to-run jitter,
  which the ground-truth simulator consumes (profiling takes several
  repeats at once through the equal ``*_samples``).  The
  Replayer's fitted cost models therefore predict noisy reality from noisy
  profiles, exactly the estimation problem the paper's predictor solves.
"""

from __future__ import annotations

from typing import Iterable

from repro.backend.autotune import AutoTuner
from repro.backend.fusion import dequant_cost
from repro.backend.minmax import MinMaxKernel
from repro.backend.wrapper import SecurityWrapper
from repro.common.dtypes import Precision
from repro.common.errors import UnsupportedPrecisionError
from repro.common.rng import derive_seed, new_rng
from repro.graph.ops import WEIGHTED_KINDS, OperatorSpec, OpKind
from repro.hardware.device import DeviceSpec


def gemm_problem(spec: OperatorSpec) -> tuple[int, int, int]:
    """Map an operator to its implied GEMM (M, N, K)."""
    if spec.kind is OpKind.CONV2D:
        out_c, in_c, kh, kw = spec.weight_shape
        n = spec.output_shape[0]
        oh, ow = spec.output_shape[2], spec.output_shape[3]
        return (n * oh * ow, out_c, in_c * kh * kw)
    if spec.kind is OpKind.LINEAR:
        out_f, in_f = spec.weight_shape
        tokens = spec.output_elems // out_f if out_f else 1
        return (tokens, out_f, in_f)
    if spec.kind is OpKind.MATMUL:
        # FLOPs = 2 M N K; output is (…, M, N).
        m, n = spec.output_shape[-2], spec.output_shape[-1]
        batch = max(spec.output_elems // (m * n), 1)
        k = max(int(spec.flops / (2.0 * batch * m * n)), 1)
        return (batch * m, n, k)
    # Elementwise: a degenerate 1-wide GEMM, never tuned with tensor cores.
    return (spec.output_elems, 1, 1)


class LPBackend:
    """Measurement surface of one device's kernel stack.

    A measurement's jitter depends only on ``seed`` and the measurement's
    key (operator or cast, precisions, repeat index): each draw comes from
    a fresh generator seeded by :func:`~repro.common.rng.derive_seed`, so
    ``seed`` must lie in ``[0, 2**64)``.  The ``*_samples`` methods measure
    several repeats from one analytic latency, which only the per-repeat
    jitter multiplies; each sample equals the ``measure_*`` call at its
    repeat.
    """

    def __init__(
        self,
        device: DeviceSpec,
        dequant_fusion: bool = True,
        optimized_minmax: bool = True,
        measurement_noise: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.device = device
        self.dequant_fusion = dequant_fusion
        self.tuner = AutoTuner(device.arch, seed=seed)
        self.wrapper = SecurityWrapper(device.arch)
        self.minmax = MinMaxKernel(device, optimized=optimized_minmax)
        self.measurement_noise = measurement_noise
        self.seed = seed

    # ------------------------------------------------------------------
    # pure operator execution (cpt_cost in Fig. 4)
    # ------------------------------------------------------------------
    def _effective_flops(self, spec: OperatorSpec, precision: Precision) -> float:
        """Tuned, wrapper-adjusted sustained FLOP/s for this op."""
        problem = gemm_problem(spec)
        call = self.wrapper.wrap(spec.kind, precision, problem)
        if call.use_tensor_cores or spec.kind not in WEIGHTED_KINDS:
            tuned = self.tuner.tune(spec.kind, precision, call.padded_problem)
            eff = tuned.efficiency / (1.0 + call.padding_waste)
            return self.device.flops_at(precision) * eff
        # SIMT fallback for a weighted op: runs near FP32 SIMT rates.
        fp32_peak = self.device.flops_at(Precision.FP32)
        return fp32_peak * 0.55

    def op_forward_time(
        self, spec: OperatorSpec, precision: Precision, input_elems: int
    ) -> float:
        """Forward latency via roofline: max(compute roof, memory roof)."""
        if not self.device.supports(precision):
            raise UnsupportedPrecisionError(
                f"{self.device.name} does not support {precision.value}"
            )
        if spec.flops <= 0:
            return 0.0
        sustained = self._effective_flops(spec, precision)
        compute = spec.flops / sustained
        nbytes = (
            input_elems * precision.nbytes
            + spec.weight_elems * precision.nbytes
            + spec.output_elems * precision.nbytes
        )
        memory = nbytes / self.device.effective_bandwidth
        return max(compute, memory) + self.device.kernel_launch_overhead

    def op_backward_time(
        self, spec: OperatorSpec, forward_precision: Precision, input_elems: int
    ) -> float:
        """Backward latency.

        Fixed-point kernels backpropagate in FP16 (footnote 2); weighted ops
        run two GEMMs (grad-input, grad-weight) hence ~2x FLOPs.
        """
        bwd_prec = (
            Precision.FP16
            if forward_precision is Precision.INT8
            else forward_precision
        )
        if spec.flops <= 0:
            return 0.0
        sustained = self._effective_flops(spec, bwd_prec)
        compute = spec.backward_flops() / sustained
        nbytes = 2.0 * (
            input_elems + spec.weight_elems + spec.output_elems
        ) * bwd_prec.nbytes
        memory = nbytes / self.device.effective_bandwidth
        launches = 2 if spec.kind in WEIGHTED_KINDS else 1
        return max(compute, memory) + launches * self.device.kernel_launch_overhead

    # ------------------------------------------------------------------
    # casting (cvt_cost / bp_cost in Fig. 4)
    # ------------------------------------------------------------------
    def cast_time(
        self,
        src: Precision,
        dst: Precision,
        elems: int,
        rows: int = 1,
    ) -> float:
        """One tensor cast between precisions.

        fp<->fp: a streaming elementwise kernel.
        fp->int8: MinMax collection + scale computation + quantize pass.
        int8->fp: dequantize pass — eliminated when fusion is on.
        """
        if src is dst or elems <= 0:
            return 0.0
        bw = self.device.effective_bandwidth
        launch = self.device.kernel_launch_overhead
        if src.is_floating_point and dst.is_floating_point:
            nbytes = elems * (src.nbytes + dst.nbytes)
            return nbytes / bw + launch
        if dst.is_fixed_point:
            src_bytes = float(elems * src.nbytes)
            collect = self.minmax.time(src_bytes, rows=rows)
            scale = launch  # tiny scalar kernel for the scaling factor
            quantize = (elems * (src.nbytes + dst.nbytes)) / bw + launch
            return collect + scale + quantize
        # fixed -> float: dequantization
        return dequant_cost(self.device, elems, fused=self.dequant_fusion)

    # ------------------------------------------------------------------
    # noisy measurements
    # ------------------------------------------------------------------
    def _jitter(self, *key) -> float:
        rng = new_rng(derive_seed(self.seed, "measure", *key))
        return float(1.0 + self.measurement_noise * rng.standard_normal())

    def _samples(self, latency: float, reps: Iterable[int], *key) -> list[float]:
        return [latency * self._jitter(*key, rep) for rep in reps]

    def op_forward_samples(
        self, spec: OperatorSpec, precision: Precision, input_elems: int,
        reps: Iterable[int],
    ) -> list[float]:
        """:meth:`measure_op_forward` at each repeat of ``reps``, from one
        analytic latency."""
        return self._samples(
            self.op_forward_time(spec, precision, input_elems), reps,
            spec.name, precision.value, "fwd",
        )

    def op_backward_samples(
        self, spec: OperatorSpec, precision: Precision, input_elems: int,
        reps: Iterable[int],
    ) -> list[float]:
        """:meth:`measure_op_backward` at each repeat of ``reps``."""
        return self._samples(
            self.op_backward_time(spec, precision, input_elems), reps,
            spec.name, precision.value, "bwd",
        )

    def cast_samples(
        self, src: Precision, dst: Precision, elems: int, reps: Iterable[int],
        rows: int = 1,
    ) -> list[float]:
        """:meth:`measure_cast` at each repeat of ``reps``."""
        return self._samples(
            self.cast_time(src, dst, elems, rows), reps,
            src.value, dst.value, elems,
        )

    def measure_op_forward(
        self, spec: OperatorSpec, precision: Precision, input_elems: int, rep: int = 0
    ) -> float:
        return self.op_forward_samples(spec, precision, input_elems, (rep,))[0]

    def measure_op_backward(
        self, spec: OperatorSpec, precision: Precision, input_elems: int, rep: int = 0
    ) -> float:
        return self.op_backward_samples(spec, precision, input_elems, (rep,))[0]

    def measure_cast(
        self, src: Precision, dst: Precision, elems: int, rows: int = 1, rep: int = 0
    ) -> float:
        return self.cast_samples(src, dst, elems, (rep,), rows)[0]
