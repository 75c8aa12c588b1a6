"""The memory predictor ``M_i(.)`` of problem (1).

"Memory consumption of training on device i can be obtained ... by profiling
and accumulating memory consumption based on operator precision in local
precision DAG G_i" (Sec. IV-B).  The accounting follows standard DNN training
memory anatomy:

* master weights — FP32 always (mixed-precision training keeps an FP32 copy);
* low-precision weight copies — at the op's forward precision when < FP32;
* weight gradients — FP32 (LP-PyTorch outputs weight grads in FP32, Sec. VI);
* optimizer state — ``optimizer_slots`` FP32 tensors per weight
  (1 for SGD+momentum, 2 for Adam);
* saved activations — what the backward pass actually needs per operator
  kind (this is where quantization buys most of its memory):

  - GEMM-like ops (conv/linear/matmul) save their operands at the *kernel*
    precision — an INT8 kernel stashes the already-quantized tensors, the
    ActNN-style saving QSync inherits;
  - normalization and GELU follow the recompute-from-input policy standard
    in memory-efficient backends (their backward re-derives what it needs
    from the producer's saved tensor + tiny per-channel stats): zero
    retained bytes;
  - softmax retains its output (its backward needs it) at its effective
    precision; embeddings retain their output as the encoder's input;
  - pure elementwise ops (ReLU/MaxPool/Add/Dropout/Flatten) save a 1-byte
    mask/index per element regardless of precision;

* workspace — transient buffers, modelled as the two largest activations.
"""

from __future__ import annotations

import dataclasses

from repro.common.dtypes import Precision
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OpKind
from repro.graph.propagation import effective_precisions

#: Ops whose backward needs only a mask / indices, not the activation.
_MASK_KINDS = frozenset(
    {OpKind.RELU, OpKind.MAXPOOL, OpKind.ADD, OpKind.DROPOUT, OpKind.FLATTEN}
)

#: Ops that save their tensors at the kernel (assigned) precision.
_GEMM_KINDS = frozenset({OpKind.CONV2D, OpKind.LINEAR, OpKind.MATMUL})

#: Ops whose backward recomputes from the producer's saved tensor.
_RECOMPUTE_KINDS = frozenset(
    {OpKind.BATCHNORM, OpKind.LAYERNORM, OpKind.GELU}
)


def op_memory_contribution(
    spec, assigned: Precision, effective: Precision
) -> tuple[int, int]:
    """(low-precision weight-copy bytes, retained activation bytes) of one op.

    The single source of truth for the per-operator accounting policy —
    shared by :meth:`MemoryModel.estimate` (full walk) and the Cost Mapper's
    incrementally maintained memory components, so the delta path cannot
    drift from the reference.
    """
    wcopy = 0
    if spec.has_weight and assigned is not Precision.FP32:
        wcopy = spec.weight_elems * assigned.nbytes
    kind = spec.kind
    if kind in (OpKind.LOSS, OpKind.INPUT) or kind in _RECOMPUTE_KINDS:
        return wcopy, 0
    if kind in _MASK_KINDS:
        per_elem = 1  # mask / pooling indices
    elif kind in _GEMM_KINDS:
        per_elem = assigned.nbytes  # saved at kernel precision
    else:
        per_elem = effective.nbytes
    return wcopy, spec.output_elems * per_elem


@dataclasses.dataclass(frozen=True)
class MemoryEstimate:
    """Byte-level breakdown of one device's training footprint."""

    weights: int
    weight_copies: int
    gradients: int
    optimizer: int
    activations: int
    workspace: int

    @property
    def total(self) -> int:
        return (
            self.weights
            + self.weight_copies
            + self.gradients
            + self.optimizer
            + self.activations
            + self.workspace
        )


class MemoryModel:
    """Estimates training memory for a precision-annotated DAG.

    Parameters
    ----------
    optimizer_slots:
        FP32 state tensors per parameter tensor (SGD+momentum: 1, Adam: 2).
    """

    def __init__(self, optimizer_slots: int = 1) -> None:
        if optimizer_slots < 0:
            raise ValueError("optimizer_slots must be >= 0")
        self.optimizer_slots = optimizer_slots

    def estimate(self, dag: PrecisionDAG) -> MemoryEstimate:
        """Full walk over ``dag`` (the reference the Cost Mapper's
        incrementally maintained terms must match)."""
        effective = effective_precisions(dag)
        weight_copies = 0
        activations = 0
        act_sizes: list[int] = []
        for name in dag.nodes():
            wcopy, act_bytes = op_memory_contribution(
                dag.spec(name), dag.precision(name), effective[name]
            )
            weight_copies += wcopy
            activations += act_bytes
            act_sizes.append(act_bytes)
        act_sizes.sort(reverse=True)
        return self.footprint(
            dag.total_weight_elems(), weight_copies, activations,
            int(sum(act_sizes[:2])),
        )

    def footprint(
        self,
        weight_elems: int,
        weight_copies: int,
        activations: int,
        workspace: int,
    ) -> MemoryEstimate:
        """The estimate from its precision-dependent terms; master weights,
        gradients and optimizer slots are FP32 tensors of ``weight_elems``
        elements each.  :meth:`estimate` and the Replayer's incremental
        and what-if paths all build their estimates here."""
        weights = weight_elems * Precision.FP32.nbytes
        return MemoryEstimate(
            weights=weights,
            weight_copies=weight_copies,
            gradients=weights,
            optimizer=self.optimizer_slots * weights,
            activations=activations,
            workspace=workspace,
        )

    def fits(self, dag: PrecisionDAG, budget_bytes: int) -> bool:
        """``M_i({b_io}) <= M_i^max``."""
        return self.estimate(dag).total <= budget_bytes
