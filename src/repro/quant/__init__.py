"""Quantization substrate.

Implements the arithmetic QSync's theory is built on:

* :mod:`repro.quant.stochastic` — unbiased stochastic rounding (SR), the
  Unbiased Quantizer of Sec. IV-A.
* :mod:`repro.quant.fixed_point` — INT-b quantization with scale/zero-point,
  layer-wise and channel-wise granularity (Sec. IV-B).
* :mod:`repro.quant.floating_point` — FP-(e,m) simulation by exponent
  clamping + mantissa truncation with SR (Proposition 2 / Appendix A-2).
* :mod:`repro.quant.variance` — the closed-form quantization variances of
  Proposition 2 and effective-bit estimation.
* :mod:`repro.quant.qsgd` — QSGD gradient compression: the unbiased
  bucket quantizer plus the planning-side wire/codec/variance models of
  the joint precision + compression axis.
"""

from repro.quant.fixed_point import (
    FixedPointQuantizer,
    Granularity,
    QuantizedTensor,
)
from repro.quant.floating_point import FloatingPointQuantizer, simulate_cast
from repro.quant.qsgd import (
    COMPRESSION_LEVELS,
    CompressionConfig,
    codec_seconds,
    compressed_nbytes,
    level_bits,
    qsgd_dequantize,
    qsgd_quantize,
    qsgd_variance_factor,
)
from repro.quant.stochastic import floor_round, nearest_round, stochastic_round
from repro.quant.variance import (
    effective_exponent,
    fixed_point_variance,
    floating_point_variance,
    quantization_mse,
)

__all__ = [
    "stochastic_round",
    "floor_round",
    "nearest_round",
    "FixedPointQuantizer",
    "QuantizedTensor",
    "Granularity",
    "FloatingPointQuantizer",
    "simulate_cast",
    "fixed_point_variance",
    "floating_point_variance",
    "effective_exponent",
    "quantization_mse",
    "COMPRESSION_LEVELS",
    "CompressionConfig",
    "codec_seconds",
    "compressed_nbytes",
    "level_bits",
    "qsgd_quantize",
    "qsgd_dequantize",
    "qsgd_variance_factor",
]
