"""Operator taxonomy and per-operator accounting.

QSync classifies operators (Sec. IV-B) into:

* **Precision-adjustable** (``O_adj``) — computation-intensive ops whose
  kernels exist at several precisions (Conv, Linear) plus overflow-prone ops
  pinned high (Softmax); the Allocator assigns these.
* **Precision-dependent** (``O_dep``) — ops whose precision follows their
  inputs (ReLU, Add, MaxPool); a precision change upstream *cascades* through
  them (the Cost Mapper's BFS).
* **Fixed** — loss functions and pure binary-input matmuls, never changed
  (Proposition 1's scope).

:class:`OperatorSpec` carries the static facts the cost/memory models need:
tensor shapes, forward FLOPs, parameter and activation element counts.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Optional

from repro.common.dtypes import Precision


class OpKind(enum.Enum):
    """Operator families with distinct cost/variance behaviour."""

    CONV2D = "conv2d"
    LINEAR = "linear"
    MATMUL = "matmul"  # binary-input, never quantized
    BATCHNORM = "batchnorm"
    LAYERNORM = "layernorm"
    RELU = "relu"
    GELU = "gelu"
    MAXPOOL = "maxpool"
    AVGPOOL = "avgpool"
    ADD = "add"
    SOFTMAX = "softmax"
    EMBEDDING = "embedding"
    DROPOUT = "dropout"
    FLATTEN = "flatten"
    LOSS = "loss"
    INPUT = "input"

    #: Identity hash, consistent with the identity ``==`` of members: the
    #: :data:`KIND_CATEGORY` lookups run in C instead of through
    #: ``Enum.__hash__``.
    __hash__ = object.__hash__


class OpCategory(enum.Enum):
    """The paper's operator classification (Sec. IV-B)."""

    ADJUSTABLE = "adjustable"  # O_adj — allocator assigns precision
    DEPENDENT = "dependent"  # O_dep — precision follows inputs
    FIXED = "fixed"  # never changed (loss, pure matmul, input)


#: Default category per kind.  Softmax is ADJUSTABLE per the paper ("operators
#: that may numerically overflow ... e.g. softmax") but is pinned to FP32 by
#: the allocator's support table; the *classification* is what matters for
#: the cost mapper's traversal rules.
KIND_CATEGORY: dict[OpKind, OpCategory] = {
    OpKind.CONV2D: OpCategory.ADJUSTABLE,
    OpKind.LINEAR: OpCategory.ADJUSTABLE,
    OpKind.SOFTMAX: OpCategory.ADJUSTABLE,
    OpKind.MATMUL: OpCategory.FIXED,
    OpKind.BATCHNORM: OpCategory.DEPENDENT,
    OpKind.LAYERNORM: OpCategory.DEPENDENT,
    OpKind.RELU: OpCategory.DEPENDENT,
    OpKind.GELU: OpCategory.DEPENDENT,
    OpKind.MAXPOOL: OpCategory.DEPENDENT,
    OpKind.AVGPOOL: OpCategory.DEPENDENT,
    OpKind.ADD: OpCategory.DEPENDENT,
    OpKind.DROPOUT: OpCategory.DEPENDENT,
    OpKind.FLATTEN: OpCategory.DEPENDENT,
    OpKind.EMBEDDING: OpCategory.FIXED,
    OpKind.LOSS: OpCategory.FIXED,
    OpKind.INPUT: OpCategory.FIXED,
}

#: Kinds that hold learnable parameters (unary-input computation ops in the
#: paper's variance analysis).
WEIGHTED_KINDS = frozenset({OpKind.CONV2D, OpKind.LINEAR})


@dataclasses.dataclass
class OperatorSpec:
    """Static description of one operator in a model graph.

    Shapes exclude nothing: the batch dimension is included so FLOPs and
    activation sizes scale with the training configuration.

    Attributes
    ----------
    name:
        Unique node id within the DAG (e.g. ``"layer3.2.conv1"``).
    kind:
        :class:`OpKind`.
    output_shape:
        Shape of the op's output activation.
    weight_shape:
        Parameter tensor shape, or ``None`` for weightless ops.
    flops:
        Forward-pass multiply-accumulate count × 2 (the usual convention).
    block:
        Label of the repeating structural block this op belongs to (used by
        the Allocator's subgraph decomposition); ``None`` = unblocked.
    """

    name: str
    kind: OpKind
    output_shape: tuple[int, ...]
    weight_shape: Optional[tuple[int, ...]] = None
    flops: float = 0.0
    block: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def category(self) -> OpCategory:
        return KIND_CATEGORY[self.kind]

    @property
    def is_adjustable(self) -> bool:
        return self.category is OpCategory.ADJUSTABLE

    @property
    def is_dependent(self) -> bool:
        return self.category is OpCategory.DEPENDENT

    @property
    def has_weight(self) -> bool:
        return self.weight_shape is not None

    @property
    def output_elems(self) -> int:
        return int(math.prod(self.output_shape)) if self.output_shape else 0

    @property
    def weight_elems(self) -> int:
        if self.weight_shape is None:
            return 0
        return int(math.prod(self.weight_shape))

    # ------------------------------------------------------------------
    def backward_flops(self) -> float:
        """Backward FLOPs: ~2x forward for weighted ops (grad-input +
        grad-weight GEMMs), ~1x for element-wise/dependent ops."""
        if self.kind in WEIGHTED_KINDS:
            return 2.0 * self.flops
        return self.flops

    def activation_bytes(self, precision: Precision) -> int:
        """Bytes to stash this op's output for the backward pass."""
        return self.output_elems * precision.nbytes

    def weight_bytes(self, precision: Precision) -> int:
        return self.weight_elems * precision.nbytes

    def supported_precisions(self) -> tuple[Precision, ...]:
        """Precisions this operator has kernels for.

        Only weighted compute ops have INT8 kernels (LP-PyTorch scope);
        softmax is overflow-prone and pinned FP32; everything else follows
        its inputs so "supports" FP16/FP32 pass-through.
        """
        if self.kind in WEIGHTED_KINDS:
            return (Precision.INT8, Precision.FP16, Precision.FP32)
        if self.kind is OpKind.SOFTMAX:
            return (Precision.FP32,)
        if self.category is OpCategory.FIXED:
            return (Precision.FP32,)
        return (Precision.FP16, Precision.FP32)


# ---------------------------------------------------------------------------
# FLOP helpers used by the model catalog
# ---------------------------------------------------------------------------


def conv2d_flops(
    batch: int, in_c: int, out_c: int, out_h: int, out_w: int, kh: int, kw: int
) -> float:
    """2 * N * Cout * Hout * Wout * Cin * Kh * Kw."""
    return 2.0 * batch * out_c * out_h * out_w * in_c * kh * kw


def linear_flops(batch_tokens: int, in_features: int, out_features: int) -> float:
    """2 * (N * S) * in * out for (possibly sequence-shaped) inputs."""
    return 2.0 * batch_tokens * in_features * out_features


def elementwise_flops(shape: tuple[int, ...]) -> float:
    return float(math.prod(shape))
