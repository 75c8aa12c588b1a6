"""Precision-aware operator semantics.

The paper treats an operator as a *pair* of forward and backward operations
whose precision changes together (Sec. IV).  :class:`PrecisionConfig` encodes
one operator's assignment ``b_io`` and the kernel-level conventions of
LP-PyTorch (Sec. VI):

* **FP32** — reference; no quantization anywhere.
* **FP16** — inputs and weights cast to FP16 (mantissa SR); activation
  gradients also flow in FP16; weight gradients are produced in FP32
  ("we output the gradient of weight in FP32", Sec. VI).
* **INT8** — inputs quantized layer-wise, weights channel-wise (Sec. IV-B's
  pairing discussion); the backward runs in FP16 (footnote 2), so the
  gradient stream is FP16-cast, never INT8.

All quantizers are fake-quant (quantize–dequantize) with straight-through
gradients, which reproduces exactly what a dequantizing INT32→FP epilogue
followed by an FP16 backward kernel computes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.common.dtypes import Precision
from repro.common.rng import new_rng
from repro.quant.fixed_point import Granularity
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


@dataclasses.dataclass
class PrecisionConfig:
    """One operator's precision assignment and kernel conventions."""

    forward: Precision = Precision.FP32
    #: Precision of the backward kernel; ``None`` derives it from ``forward``
    #: per the paper's rules (INT8 -> FP16 backward; else same as forward).
    backward: Precision | None = None
    #: Fixed-point granularity for activations / weights.
    act_granularity: Granularity = Granularity.LAYER
    weight_granularity: Granularity = Granularity.CHANNEL
    #: Rounding mode (``"floor"`` for the §VIII ablation).
    rounding: str = "stochastic"
    #: Seed for this operator's quantization noise stream.
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = new_rng(self.seed)

    @property
    def effective_backward(self) -> Precision:
        """Backward precision after applying the paper's derivation rules."""
        if self.backward is not None:
            return self.backward
        if self.forward is Precision.INT8:
            return Precision.FP16  # integer backward is inefficient (fn. 2)
        return self.forward

    @property
    def rng(self) -> np.random.Generator:
        return self._rng


def apply_input_precision(
    x: Tensor, weight: Tensor, config: PrecisionConfig
) -> tuple[Tensor, Tensor]:
    """Quantize an operator's activation input and weight per its config.

    Returns the (possibly fake-quantized) ``(x, weight)`` pair to feed the
    FP64 compute kernel.  Also installs the backward-precision hook on the
    activation path so the gradient leaving this operator is cast to the
    backward kernel's format.
    """
    fwd = config.forward
    if fwd is Precision.FP32:
        return x, weight

    rng = config.rng
    if fwd is Precision.FP16:
        x_q = F.fake_quant_float(x, Precision.FP16, rng, rounding=config.rounding)
        w_q = F.fake_quant_float(weight, Precision.FP16, rng, rounding=config.rounding)
    elif fwd is Precision.INT8:
        x_q = F.fake_quant_fixed(
            x, 8, rng, granularity=config.act_granularity, rounding=config.rounding
        )
        w_q = F.fake_quant_fixed(
            weight, 8, rng, granularity=config.weight_granularity, rounding=config.rounding
        )
    else:  # pragma: no cover - exhaustive over Precision
        raise ValueError(f"unhandled forward precision {fwd}")

    # Backward kernel precision: quantize the gradient that exits through
    # the activation input (weight gradients stay FP32 per Sec. VI).
    bwd = config.effective_backward
    if bwd is not Precision.FP32:
        x_q = F.grad_quant(x_q, bwd, rng, rounding=config.rounding)
    return x_q, w_q


class QuantizedOp:
    """Helper to install precision plans onto a module tree.

    A *plan* maps module paths (as produced by ``Module.named_modules``) to
    :class:`Precision`.  Only precision-adjustable modules (those exposing a
    ``precision`` attribute with weights, i.e. Linear/Conv2d) are touched;
    unknown paths raise so typos in plans fail loudly.
    """

    ADJUSTABLE_TYPES = ("Linear", "Conv2d")

    @staticmethod
    def adjustable_modules(model) -> dict[str, object]:
        """Path -> module for every precision-adjustable operator."""
        out = {}
        for path, mod in model.named_modules():
            if type(mod).__name__ in QuantizedOp.ADJUSTABLE_TYPES:
                out[path] = mod
        return out

    @staticmethod
    def install_plan(
        model,
        plan: dict[str, Precision],
        seed: int = 0,
        rounding: str = "stochastic",
    ) -> None:
        """Assign per-module precisions; paths absent from the plan keep FP32."""
        adjustable = QuantizedOp.adjustable_modules(model)
        unknown = set(plan) - set(adjustable)
        if unknown:
            raise KeyError(f"plan references unknown modules: {sorted(unknown)[:5]}")
        for i, (path, mod) in enumerate(sorted(adjustable.items())):
            prec = plan.get(path, Precision.FP32)
            mod.precision = PrecisionConfig(
                forward=prec, seed=seed * 10_007 + i, rounding=rounding
            )

    @staticmethod
    def uniform_plan(model, precision: Precision) -> dict[str, Precision]:
        """Every adjustable operator at one precision (the UP baseline)."""
        return {
            path: precision for path in QuantizedOp.adjustable_modules(model)
        }
