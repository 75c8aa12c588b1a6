"""QSGD gradient compression — quantizer, wire/codec costs, variance model.

QSync plans *weight/activation* precision but historically synchronized
gradients at full FP32, so on comm-bound multi-node presets the all-reduce
term dominates even under the hierarchical collective.  QSGD (Alistarh et
al.) quantizes each gradient bucket to ``s = 2**bits - 1`` stochastic
levels scaled by the bucket's magnitude: the quantizer stays **unbiased**
(it is :func:`repro.quant.stochastic.stochastic_round` on rescaled
coordinates, ``E[Q(g)] = g``), at the price of a bounded variance penalty —
exactly the trade the Indicator already arbitrates for activations and
weights.

This module carries the three planning-side ingredients:

* **Wire size** — :func:`compressed_nbytes`: how many bytes a bucket
  occupies on the link at a given bit width (identity at >= 32 bits, the
  level-0 parity contract).
* **Codec cost** — :func:`codec_seconds`: one quantize-or-dequantize pass
  over the uncompressed payload at :data:`QSGD_CODEC_BANDWIDTH` (HBM-bound
  elementwise kernels; the collective models multiply by their hop count).
* **Variance** — :func:`qsgd_variance_factor`: the Proposition-2-style
  per-bucket variance multiplier consumed by
  :meth:`repro.core.indicator.VarianceIndicator.gradient_sync_variance`.

The planning models are pure Python; only the
:func:`qsgd_quantize`/:func:`qsgd_dequantize` tensor codec touches numpy.
All codec randomness is derived through
:func:`repro.common.rng.derive_seed`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.common.rng import derive_seed
from repro.quant.stochastic import stochastic_round

#: Compression ladder (append-only vocabulary, like precision ladders):
#: level 0 is *uncompressed* — bit-identical to the pre-compression paths —
#: and each deeper level halves the mantissa budget of the sync'd gradients.
COMPRESSION_LEVELS: tuple[int, ...] = (0, 1, 2, 3)

#: Level -> gradient bit width on the wire.  Level 0 maps to 32 (FP32
#: passthrough); deeper levels are the classic QSGD sweet spots.
LEVEL_BITS: dict[int, int] = {0: 32, 1: 8, 2: 4, 3: 2}

#: Effective bandwidth of one quantize/dequantize pass (bytes/second).
#: QSGD's codec is an elementwise scale + stochastic-round — HBM-bound, not
#: FLOP-bound — so it runs near memory bandwidth on datacenter GPUs.
QSGD_CODEC_BANDWIDTH: float = 400e9

#: Per-bucket wire header: the FP32 scale (bucket magnitude) + element count.
_HEADER_BYTES = 8


def level_bits(level: int) -> int:
    """Wire bit width of one compression level (raises on unknown levels)."""
    try:
        return LEVEL_BITS[int(level)]
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"unknown compression level {level!r}; available: "
            f"{sorted(LEVEL_BITS)}"
        ) from None


def compressed_nbytes(nbytes: int, bits: int | None) -> int:
    """Bytes one FP32 gradient buffer occupies on the wire at ``bits``.

    ``None`` or >= 32 bits returns ``nbytes`` **unchanged** (the level-0
    parity contract: uncompressed pricing must see the exact same integer
    the uncompressed path sees).  Below 32 the payload packs
    ``nbytes/4`` elements at ``bits`` each (integer ceiling) plus the
    per-bucket scale header.
    """
    if bits is None or bits >= 32:
        return nbytes
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    elements = nbytes // 4
    return (elements * bits + 7) // 8 + _HEADER_BYTES


def codec_seconds(nbytes: int, bits: int | None) -> float:
    """Seconds for one quantize-or-dequantize pass over ``nbytes``.

    Zero at >= 32 bits (no codec runs on the uncompressed path — parity).
    Collective models multiply this by their hop count: each compressed
    hop boundary re-quantizes (DynamiQ-style multi-hop).
    """
    if bits is None or bits >= 32:
        return 0.0
    return nbytes / QSGD_CODEC_BANDWIDTH


def qsgd_variance_factor(bits: int | None) -> float:
    """Per-bucket gradient-variance multiplier of a ``bits``-wide QSGD cast.

    Proposition-2 reasoning applied to the QSGD grid: stochastic rounding
    onto ``s = 2**bits - 1`` levels spaced ``q = 8 * rms / s`` apart (the
    bucket scale is its magnitude; ``max|g| ~ 4 rms`` is the usual
    sub-Gaussian tail proxy) has per-element variance ``q**2 / 6``, so the
    bucket's total added variance is ``(64 / (6 s**2)) * sum(g**2)`` — this
    function returns the ``64 / (6 s**2)`` factor multiplying the gradient
    second moment.  Zero at >= 32 bits (uncompressed adds nothing).
    """
    if bits is None or bits >= 32:
        return 0.0
    s = float(2**bits - 1)
    return 64.0 / (6.0 * s * s)


@dataclasses.dataclass(frozen=True)
class CompressionConfig:
    """Declarative knobs of the joint precision + compression search.

    ``levels`` is the ladder the per-bucket greedy ascent may climb
    (``(0,)`` pins every bucket uncompressed — the parity configuration);
    ``loss_budget`` caps the *added* gradient-sync variance at this
    fraction of the precision plan's own indicator loss.
    """

    levels: tuple[int, ...] = COMPRESSION_LEVELS
    loss_budget: float = 0.01

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("compression levels must be non-empty")
        for lvl in self.levels:
            level_bits(lvl)  # raises ValueError on unknown rungs
        if self.levels[0] != 0:
            raise ValueError(
                f"the compression ladder must start at level 0 (the "
                f"uncompressed parity rung), got {self.levels!r}"
            )
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError(
                f"compression levels must be strictly ascending, got "
                f"{self.levels!r}"
            )
        if not 0.0 <= self.loss_budget:
            raise ValueError(
                f"loss_budget must be >= 0, got {self.loss_budget}"
            )


def qsgd_quantize(x, bits: int, seed: int, *keys):
    """QSGD-quantize a gradient tensor to ``bits`` stochastic levels.

    ``Q(x)_i = norm * sign(x_i) * SR(|x_i| / norm * s) / s`` with
    ``s = 2**bits - 1`` and ``norm = max|x|`` — unbiased because
    :func:`~repro.quant.stochastic.stochastic_round` is.  Randomness comes
    from ``derive_seed(seed, 'qsgd', bits, *keys)`` so every rank/bucket
    stream is independent yet reproducible.

    Returns ``(levels, signs, norm)`` — the integer level indices, the
    sign array, and the FP32 scale (what travels on the wire).
    """
    if bits >= 32 or bits <= 0:
        raise ValueError(f"qsgd_quantize needs 0 < bits < 32, got {bits}")
    x = np.asarray(x, dtype=np.float64)
    s = float(2**bits - 1)
    norm = float(np.max(np.abs(x))) if x.size else 0.0
    signs = np.sign(x)
    if norm == 0.0:
        return np.zeros_like(x), signs, 0.0
    rng = np.random.default_rng(derive_seed(seed, "qsgd", bits, *keys))
    levels = stochastic_round(np.abs(x) / norm * s, rng)
    return levels, signs, norm


def qsgd_dequantize(levels, signs, norm: float, bits: int):
    """Invert :func:`qsgd_quantize`: ``norm * sign * level / s``."""
    if bits >= 32 or bits <= 0:
        raise ValueError(f"qsgd_dequantize needs 0 < bits < 32, got {bits}")
    s = float(2**bits - 1)
    return np.asarray(levels, dtype=np.float64) * np.asarray(signs) * (norm / s)
