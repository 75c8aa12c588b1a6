"""Unified node-cost sources and the shared LocalDFG assembly path.

Three local-DFG builders price ops differently — the
:class:`~repro.core.cost_mapper.CostMapper` (catalog means + fitted casts),
the ground-truth simulator (jittered measurements + comm contention) and
the Dpro baseline (casting-blind pure costs) — and walk the graph alike.
This module holds the pricing protocol, one source per builder, and the
one walk they share:

* :class:`NodeCostSource` — the pricing protocol: per-op forward/backward
  node segments plus the optimizer pass;
* :class:`CatalogCostSource` — Cost Mapper semantics (catalog ``CC_i`` +
  cast model ``CP``), wrapping the very segment functions the incremental
  mapper itself runs (re-exported here from
  :mod:`repro.core.cost_mapper`), so the two can never drift;
* :class:`MeasuredCostSource` — the ground-truth jitter/launch-gap/comm-
  contention model (the "hardware" side of Table III);
* :class:`CastingBlindCostSource` — Dpro's cast- and cascade-blind
  prediction [35];
* :func:`assemble_local_dfg` — the one walk shared by every non-incremental
  builder: forward in topo order, backward in reverse topo order tracking
  per-op readiness anchors (nearest-preceding semantics everywhere),
  buckets via :func:`~repro.core.dfg.assign_buckets`, readiness via
  :func:`~repro.core.dfg.bucket_readiness_from_stream`, then the optimizer.
"""

from __future__ import annotations

import abc
import functools

from repro.common.dtypes import Precision
from repro.common.rng import derive_seed
from repro.core.cost_mapper import (  # noqa: F401 - canonical re-export
    catalog_backward_segment,
    catalog_forward_segment,
    catalog_pure_cost,
    optimizer_pass_seconds,
)
from repro.core.dfg import (
    DFGNode,
    LocalDFG,
    NodeKind,
    assign_buckets,
    bucket_readiness_from_stream,
)
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OpKind
from repro.graph.propagation import (
    effective_precisions,
    grad_precision,
    output_precision,
)


@functools.lru_cache(maxsize=None)
def rep_offset(name: str) -> int:
    """Per-op measurement-rep offset decorrelating cast samples between ops.

    Derived from the op *name* via the seeded FNV mix — builtin ``hash`` is
    salted per process, which made "ground truth" measurements differ from
    run to run (Table III was irreproducible).
    """
    return derive_seed(0, name) % 97


# ---------------------------------------------------------------------------
# the protocol
# ---------------------------------------------------------------------------


class NodeCostSource(abc.ABC):
    """Prices one rank's per-op DFG contributions for the shared assembler.

    A source owns its Precision DAG and its notion of *effective* precision;
    :func:`assemble_local_dfg` only asks it for segments.  Sources with
    stateful randomness (the measured one) rely on the assembler's fixed
    call order: every op's forward segment in topo order, then every op's
    backward segment in reverse topo order, then the optimizer.
    """

    dag: PrecisionDAG

    @abc.abstractmethod
    def forward_segment(self, name: str) -> list[DFGNode]:
        """Forward-stream nodes op ``name`` contributes (casts + compute)."""

    @abc.abstractmethod
    def backward_segment(self, name: str) -> list[DFGNode]:
        """Backward-stream nodes op ``name`` contributes."""

    @abc.abstractmethod
    def optimizer_duration(self) -> float:
        """Duration of the optimizer pass closing the iteration."""


class CatalogCostSource(NodeCostSource):
    """Cost Mapper pricing: catalog means + fitted linear cast models.

    ``assemble_local_dfg(CatalogCostSource(...))`` is node-for-node
    identical to ``CostMapper.build_local_dfg`` (equivalence-tested) — the
    Cost Mapper keeps its incremental segment cache, but both derive every
    segment through the same module-level functions above.
    """

    def __init__(self, dag: PrecisionDAG, catalog, cast_calc, device) -> None:
        self.dag = dag
        self.catalog = catalog
        self.cast_calc = cast_calc
        self.device = device
        self.effective = effective_precisions(dag)

    def forward_segment(self, name: str) -> list[DFGNode]:
        return catalog_forward_segment(
            self.dag, self.catalog, self.cast_calc, name, self.effective
        )

    def backward_segment(self, name: str) -> list[DFGNode]:
        return catalog_backward_segment(
            self.dag, self.catalog, self.cast_calc, name, self.effective
        )

    def optimizer_duration(self) -> float:
        return optimizer_pass_seconds(self.dag.total_weight_elems(), self.device)


class MeasuredCostSource(NodeCostSource):
    """Ground-truth pricing: independently jittered backend measurements,
    per-instance launch gaps, and comm-contention-inflated backward costs —
    the ways real hardware differs from the Replayer's cost model.

    ``rng`` is the stateful jitter stream for one ``(rank, iteration)``
    build; the assembler's fixed walk order keeps draws reproducible.
    """

    def __init__(
        self,
        dag: PrecisionDAG,
        backend,
        device,
        rng,
        iteration: int,
        comm_contention: float,
    ) -> None:
        self.dag = dag
        self.backend = backend
        self.device = device
        self.rng = rng
        self.iteration = iteration
        self.contention = 1.0 + comm_contention
        self.effective = effective_precisions(dag)

    # -- jitter primitives --------------------------------------------
    def _jitter(self) -> float:
        return float(1.0 + 0.02 * self.rng.standard_normal())

    def _launch_gap(self) -> float:
        return float(max(self.rng.normal(2e-6, 1e-6), 0.0))

    def _kernel_precision(self, name: str, prec: Precision) -> Precision:
        """Dependent ops with INT8-effective inputs execute FP16 kernels."""
        if not self.backend.device.supports(prec):
            return (
                Precision.FP16
                if self.backend.device.supports(Precision.FP16)
                else Precision.FP32
            )
        if prec is Precision.INT8 and not self.dag.spec(name).is_adjustable:
            return Precision.FP16
        return prec

    def _input_elems(self, name: str) -> int:
        return sum(
            self.dag.spec(p).output_elems for p in self.dag.predecessors(name)
        )

    # -- segments ------------------------------------------------------
    def forward_segment(self, name: str) -> list[DFGNode]:
        dag, backend, it = self.dag, self.backend, self.iteration
        seg: list[DFGNode] = []
        spec = dag.spec(name)
        prec = self.effective[name]
        for pred in dag.predecessors(name):
            src = output_precision(self.effective[pred])
            if src is not prec:
                dur = backend.measure_cast(
                    src, prec, dag.spec(pred).output_elems,
                    rep=it * 131 + rep_offset(name),
                )
                if dur > 0:
                    seg.append(
                        DFGNode(f"cast:{pred}->{name}", NodeKind.CAST,
                                dur * self._jitter() + self._launch_gap(),
                                op=name)
                    )
        if spec.is_adjustable and spec.has_weight and prec is not Precision.FP32:
            dur = backend.measure_cast(
                Precision.FP32, prec, spec.weight_elems, rep=it
            )
            if dur > 0:
                seg.append(
                    DFGNode(f"cast:w:{name}", NodeKind.CAST,
                            dur * self._jitter() + self._launch_gap(), op=name)
                )
        fwd = backend.measure_op_forward(
            spec, self._kernel_precision(name, prec), self._input_elems(name),
            rep=it,
        )
        if fwd > 0:
            seg.append(
                DFGNode(name, NodeKind.FORWARD,
                        fwd * self._jitter() + self._launch_gap(), op=name)
            )
        return seg

    def backward_segment(self, name: str) -> list[DFGNode]:
        dag, backend, it = self.dag, self.backend, self.iteration
        spec = dag.spec(name)
        if spec.kind is OpKind.INPUT:
            return []  # the graph input's gradient is never materialized
        seg: list[DFGNode] = []
        prec = self.effective[name]
        my_grad = grad_precision(prec)
        for succ in dag.successors(name):
            succ_grad = grad_precision(self.effective[succ])
            if succ_grad is not my_grad:
                dur = backend.measure_cast(
                    succ_grad, my_grad, spec.output_elems, rep=it + 7
                )
                if dur > 0:
                    seg.append(
                        DFGNode(f"cast:g:{succ}->{name}", NodeKind.CAST,
                                dur * self.contention * self._jitter()
                                + self._launch_gap(),
                                op=name)
                    )
        bwd = backend.measure_op_backward(
            spec, self._kernel_precision(name, prec), self._input_elems(name),
            rep=it,
        )
        if bwd > 0:
            seg.append(
                DFGNode(f"bwd:{name}", NodeKind.BACKWARD,
                        bwd * self.contention * self._jitter()
                        + self._launch_gap(),
                        op=name)
            )
        return seg

    def optimizer_duration(self) -> float:
        base = optimizer_pass_seconds(self.dag.total_weight_elems(), self.device)
        return base * self._jitter()


class CastingBlindCostSource(NodeCostSource):
    """Dpro pricing [35]: each op's *pure* cost at its assigned precision
    (adjustable ops) or FP32 (everything else — no cascade modelling), no
    cast nodes anywhere."""

    def __init__(self, dag: PrecisionDAG, catalog, device) -> None:
        self.dag = dag
        self.catalog = catalog
        self.device = device

    def _pure(self, op: str):
        spec = self.dag.spec(op)
        # No cascade: only the op's own assignment matters.
        prec = self.dag.precision(op) if spec.is_adjustable else Precision.FP32
        if self.catalog.has(op, prec):
            return self.catalog.get(op, prec)
        return self.catalog.get(op, Precision.FP32)

    def forward_segment(self, name: str) -> list[DFGNode]:
        cost = self._pure(name)
        if cost.forward > 0:
            return [DFGNode(name, NodeKind.FORWARD, cost.forward, op=name)]
        return []

    def backward_segment(self, name: str) -> list[DFGNode]:
        cost = self._pure(name)
        if cost.backward > 0:
            return [
                DFGNode(f"bwd:{name}", NodeKind.BACKWARD, cost.backward, op=name)
            ]
        return []

    def optimizer_duration(self) -> float:
        return optimizer_pass_seconds(self.dag.total_weight_elems(), self.device)


# ---------------------------------------------------------------------------
# the shared assembly walk
# ---------------------------------------------------------------------------


def assemble_local_dfg(
    source: NodeCostSource,
    device_name: str,
    rank: int,
    bucket_cap_bytes: int = 25 * 1024**2,
) -> LocalDFG:
    """Build one rank's execution line from a cost source.

    The single walk every non-incremental builder shares: forward segments
    in topo order; backward segments in reverse topo order while tracking
    each weighted op's readiness anchor — its BACKWARD node, else the last
    node of its segment, else the nearest *preceding* backward-stream node
    (index -1 = forward end); DDP buckets from the weighted ops in backward
    completion order; readiness via :func:`bucket_readiness_from_stream`.
    """
    dag = source.dag
    topo = dag.topo_order()
    dfg = LocalDFG(device_name, rank)
    # Build the streams as plain lists and install them in one shot
    # (load_streams): same node order and the same sequential left-to-right
    # duration sums as repeated add_* calls, so totals stay bit-identical,
    # without paying per-node cache invalidation.
    forward: list[DFGNode] = []
    fwd_total = 0.0
    for name in topo:
        for node in source.forward_segment(name):
            forward.append(node)
            fwd_total += node.duration

    backward: list[DFGNode] = []
    bwd_total = 0.0
    anchors: dict[str, int] = {}
    weighted_rev: list[tuple[str, int]] = []
    for name in reversed(topo):
        base = len(backward)
        seg = source.backward_segment(name)
        pos = None
        for i, node in enumerate(seg):
            backward.append(node)
            bwd_total += node.duration
            if node.kind is NodeKind.BACKWARD:
                pos = i
        spec = dag.spec(name)
        if spec.has_weight:
            anchors[name] = base + pos if pos is not None else base + len(seg) - 1
            weighted_rev.append((name, spec.weight_elems * Precision.FP32.nbytes))

    dfg.load_streams(forward, backward, fwd_total, bwd_total)
    buckets = assign_buckets(weighted_rev, bucket_cap_bytes)
    dfg.set_buckets(
        buckets, bucket_readiness_from_stream(dfg.backward, buckets, anchors)
    )
    dfg.set_optimizer(source.optimizer_duration())
    return dfg
