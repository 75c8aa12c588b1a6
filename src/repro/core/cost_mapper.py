"""The neighborhood-aware Cost Mapper (Algorithm 1, Fig. 5).

Responsibilities:

1. **Precision propagation** — precision-dependent operators (``O_dep``)
   take the precision implied by their inputs; changing an adjustable op
   therefore cascades through dependent successors ("cascading precision
   shift", Sec. II-B footnote 1).
2. **Casting costs** — wherever a producer's *output* precision differs from
   a consumer's *compute* precision, a cast node is charged via the fitted
   linear models (``CP``); weight casts are charged for adjustable ops below
   FP32; backward casts are charged where gradient formats disagree.
3. **DFG reconstruction** — pure op execution costs are fetched from the
   profiled catalog (``CC_i``) at the op's effective precision and assembled
   into a :class:`LocalDFG`.

Entry points: :meth:`CostMapper.build_local_dfg` (full rebuild),
:meth:`CostMapper.current_dfg` (refresh the retained DFG against the DAG's
dirty log — the Replayer's fast path), :meth:`CostMapper.compute_time`
(that DFG's compute time, without assembling it — the Allocator's brute
force).  Callers change a precision on the DAG
(:meth:`~repro.graph.dag.PrecisionDAG.set_precision`, Algorithm 1's
UpdateDAG) and :meth:`CostMapper.refresh` runs the incremental rest.

Incremental engine: the mapper retains per-op *prices* — the slice of
forward nodes (input casts, weight cast, compute) and backward nodes (grad
casts, compute) each operator contributes, their duration sums and its
memory terms — keyed by the DAG's version counter.  A precision change
re-resolves only the dirty ops' dependent cone
(:func:`repro.graph.propagation.propagate_dirty`), re-prices only the
changed ops and their graph neighbours (casts look one hop in each
direction), and reassembles the execution line from retained prices.
Bucket membership and the optimizer pass depend only on the graph
structure and are computed once.  Equivalence with a from-scratch
:meth:`build_local_dfg` is pinned node-for-node by the test suite.

Price memo: an op's price depends only on its assigned precision and the
effective precisions of itself and its one-hop neighbours (the
neighbourhood-aware property of Algorithm 1), so prices are memoized on
exactly that context.  The allocator's brute force and what-if sweeps
revisit the same few neighbourhoods thousands of times, and different
strategies on one model share most of them; a revisit is a dict lookup
instead of cast-model predictions, catalog lookups and node construction.
A mapper may be handed its memo: ``PlanSession`` keeps one per device type
and model recipe in its :class:`~repro.session.profiles.ProfileStore`, so
every replayer the session builds for that recipe reads and fills the same
dict, holding the distinct contexts the whole session visits.  A mapper
given none keeps a private one.  When the DAG's structure moves the mapper
swaps in a fresh private dict and never clears the one it was handed.
:meth:`CostMapper.build_local_dfg` never reads or fills the memo, so
``Replayer(incremental=False)`` stays an independent from-scratch oracle.
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
from typing import Callable

from repro.common.dtypes import Precision
from repro.core.dfg import (
    CommBucket,
    DFGNode,
    LocalDFG,
    NodeKind,
    OpPrice,
    assemble_execution_line,
    weight_buckets,
)
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OpKind
from repro.graph.propagation import (  # noqa: F401 - canonical re-export
    effective_precisions,
    grad_precision,
    output_precision,
    propagate_dirty,
)
from repro.hardware.device import DeviceSpec
from repro.kernel import LocalLayout
from repro.profiling.casting import CastCostCalculator
from repro.profiling.memory import op_memory_contribution
from repro.profiling.profiler import OperatorCostCatalog


# ---------------------------------------------------------------------------
# catalog pricing primitives — module-level so the full derivation and the
# memoized incremental one below price every op through one implementation.
# ---------------------------------------------------------------------------


def catalog_pure_cost(catalog: OperatorCostCatalog, op: str, precision: Precision):
    """``CC_i`` lookup with pass-through fallback: dependent ops are
    profiled only at FP16/FP32, and INT8-effective dependent ops execute
    their FP16 kernel."""
    if catalog.has(op, precision):
        return catalog.get(op, precision)
    if precision is Precision.INT8 and catalog.has(op, Precision.FP16):
        return catalog.get(op, Precision.FP16)
    return catalog.get(op, Precision.FP32)


def catalog_forward_segment(
    dag: PrecisionDAG,
    catalog: OperatorCostCatalog,
    cast_calc: CastCostCalculator,
    name: str,
    effective: dict[str, Precision],
) -> list[DFGNode]:
    """Forward nodes one op contributes: input casts (lines 6-10 of
    Alg. 1), weight cast (lines 11-13), then the compute node."""
    seg: list[DFGNode] = []
    spec = dag.spec(name)
    prec = effective[name]
    for pred in dag.predecessors(name):
        src_prec = output_precision(effective[pred])
        if src_prec is not prec:
            cost = cast_calc.predict(src_prec, prec, dag.spec(pred).output_elems)
            if cost > 0:
                seg.append(
                    DFGNode(f"cast:{pred}->{name}", NodeKind.CAST, cost, op=name)
                )
    if spec.is_adjustable and spec.has_weight and prec is not Precision.FP32:
        cost = cast_calc.predict(Precision.FP32, prec, spec.weight_elems)
        if cost > 0:
            seg.append(DFGNode(f"cast:w:{name}", NodeKind.CAST, cost, op=name))
    fwd = catalog_pure_cost(catalog, name, prec).forward
    if fwd > 0:
        seg.append(DFGNode(name, NodeKind.FORWARD, fwd, op=name))
    return seg


def catalog_backward_segment(
    dag: PrecisionDAG,
    catalog: OperatorCostCatalog,
    cast_calc: CastCostCalculator,
    name: str,
    effective: dict[str, Precision],
) -> list[DFGNode]:
    """Backward nodes one op contributes: gradient-format casts from
    successors (lines 17-24; each successor hands back a gradient in its
    own backward format), then the compute node."""
    spec = dag.spec(name)
    if spec.kind is OpKind.INPUT:
        return []  # the graph input's gradient is never materialized
    seg: list[DFGNode] = []
    prec = effective[name]
    my_grad = grad_precision(prec)
    for succ in dag.successors(name):
        succ_grad = grad_precision(effective[succ])
        if succ_grad is not my_grad:
            cost = cast_calc.predict(succ_grad, my_grad, spec.output_elems)
            if cost > 0:
                seg.append(
                    DFGNode(f"cast:g:{succ}->{name}", NodeKind.CAST, cost, op=name)
                )
    bwd = catalog_pure_cost(catalog, name, prec).backward
    if bwd > 0:
        seg.append(DFGNode(f"bwd:{name}", NodeKind.BACKWARD, bwd, op=name))
    return seg


def optimizer_pass_seconds(total_weight_elems: int, device) -> float:
    """Optimizer step: bandwidth-bound elementwise pass over all parameters
    (read w, g, momentum; write w, momentum — 5 FP32 each)."""
    return (
        5.0 * total_weight_elems * Precision.FP32.nbytes
        / device.effective_bandwidth
        + device.kernel_launch_overhead
    )


class _MapperState:
    """Retained derivation of the DAG at one version: effective precisions,
    each op's :class:`~repro.core.dfg.OpPrice`, the activation bytes and
    memory totals over them, the top-2 workspace term, the last assembled
    DFG, and the structural record — weighted ops, gradient buckets and the
    optimizer pass — derived once per structure by
    :meth:`CostMapper._full_derive`."""

    __slots__ = (
        "version",
        "structure",
        "effective",
        "prices",
        "weighted",
        "buckets",
        "optimizer_s",
        "mem_act",
        "mem_wcopy_total",
        "mem_act_total",
        "workspace",
        "dfg",
        "dfg_key",
    )

    def __init__(
        self,
        version: int,
        structure: int,
        effective: dict[str, Precision],
        prices: dict[str, OpPrice],
        weighted: frozenset,
        buckets: list[CommBucket],
        optimizer_s: float,
    ) -> None:
        self.version = version
        self.structure = structure
        self.effective = effective
        self.prices = prices
        self.weighted = weighted
        self.buckets = buckets
        self.optimizer_s = optimizer_s
        #: op -> activation bytes: the workspace term's input, kept as
        #: plain ints because it is re-read after every change.
        self.mem_act = {name: p.act for name, p in prices.items()}
        self.mem_wcopy_total = sum(p.wcopy for p in prices.values())
        self.mem_act_total = sum(self.mem_act.values())
        #: The two largest activations' bytes, or None until first read.
        self.workspace: int | None = None
        self.dfg: LocalDFG | None = None
        self.dfg_key: tuple[str, int] | None = None

    def set_price(self, name: str, price: OpPrice) -> None:
        old = self.prices[name]
        self.mem_wcopy_total += price.wcopy - old.wcopy
        self.mem_act_total += price.act - old.act
        self.mem_act[name] = price.act
        self.prices[name] = price


@dataclasses.dataclass(frozen=True)
class WhatIfChange:
    """A hypothetical single-op precision change, described as replacement
    values against the mapper's current base — never applied to the DAG.

    ``fwd_sums``/``bwd_sums``/``bwd_durs``/``bwd_pos`` cover exactly the
    affected neighbourhood the sequential path would re-derive (changed
    cone + one-hop neighbours + the op itself); every float is read off
    the same memoized :meth:`CostMapper._price` records the sequential
    path retains, so splicing them into a compiled base
    (:func:`repro.kernel.candidate_row`) is bit-identical to apply +
    rebuild + revert.  The memory totals mirror
    :meth:`CostMapper.memory_components` after the change.
    """

    op: str
    precision: Precision
    #: op -> new forward-segment duration sum.
    fwd_sums: dict[str, float]
    #: op -> new backward-segment duration sum.
    bwd_sums: dict[str, float]
    #: op -> new backward node durations, in stream order.
    bwd_durs: dict[str, tuple]
    #: op -> BACKWARD-node offset within the segment, -1 when none.
    bwd_pos: dict[str, int]
    wcopy_total: int
    act_total: int
    workspace: int


class CostMapper:
    """Maps a precision assignment to a costed :class:`LocalDFG`.

    Parameters
    ----------
    dag:
        The device's Precision DAG; callers mutate it through
        :meth:`~repro.graph.dag.PrecisionDAG.set_precision` and the mapper
        follows its dirty log.
    catalog:
        Profiled pure-execution costs ``CC_i``.
    cast_calc:
        Fitted casting-cost models ``CP``.
    device:
        The :class:`~repro.hardware.device.DeviceSpec` whose memory
        bandwidth prices the optimizer pass.
    prices:
        The price memo to read and fill (see the module docstring), shared
        by every mapper over a copy of one template with the same catalog,
        cast model and device.  ``None`` keeps a private one.

    Segments are priced by the module-level ``catalog_*`` functions and
    assembled by :func:`~repro.core.dfg.assemble_execution_line`, the walk
    the ground truth and Dpro run over their own prices.
    """

    def __init__(
        self,
        dag: PrecisionDAG,
        catalog: OperatorCostCatalog,
        cast_calc: CastCostCalculator,
        device: DeviceSpec,
        prices: dict[tuple, OpPrice] | None = None,
    ) -> None:
        self.dag = dag
        self.catalog = catalog
        self.cast_calc = cast_calc
        self.device = device
        self._state: _MapperState | None = None
        #: The price memo: (op, assigned precision, effective precisions of
        #: the op, its predecessors and its successors) -> OpPrice, valid
        #: for the DAG structure ``_memo_structure``.  ``_contexts`` holds
        #: each op's getter for the effective part of its key.
        self._memo_structure = dag.structure_version
        self._prices: dict[tuple, OpPrice] = {} if prices is None else prices
        self._contexts: dict[str, operator.itemgetter] = {}
        #: Diagnostics: how often the full vs. delta path ran (the allocator
        #: benchmark asserts zero full rebuilds inside the recovery loop).
        self.full_rebuilds = 0
        self.incremental_updates = 0

    # ------------------------------------------------------------------
    # assembly: cached segments -> execution line
    # ------------------------------------------------------------------
    def _assemble(self, device_name: str, rank: int) -> LocalDFG:
        state = self._state
        assert state is not None
        dfg = assemble_execution_line(
            device_name,
            rank,
            self.dag.topo_order(),
            state.prices,
            state.weighted,
            state.buckets,
            state.optimizer_s,
        )
        state.dfg = dfg
        state.dfg_key = (device_name, rank)
        return dfg

    # ------------------------------------------------------------------
    # full DFG construction
    # ------------------------------------------------------------------
    def build_local_dfg(self, device_name: str, rank: int) -> LocalDFG:
        """Rebuild the device's execution line from scratch under the
        current precisions, replacing any retained incremental state.

        Prices every op fresh, never reading or filling the price memo, so
        the from-scratch path stays an independent oracle for it."""
        self._full_derive(self._price_fresh)
        return self._assemble(device_name, rank)

    def _full_derive(self, price: Callable[..., OpPrice]) -> None:
        """Derive the complete retained state from the DAG (full walk),
        pricing every op through ``price`` (:meth:`_price_fresh` or the
        memoized :meth:`_price`).  The structural record (weighted ops;
        buckets at the default cap of
        :func:`~repro.core.dfg.weight_buckets`, as the ground truth's and
        Dpro's; the optimizer pass) is derived here only: :meth:`refresh`
        re-derives everything when the structure moves, so every later read
        finds it current."""
        dag = self.dag
        effective = effective_precisions(dag)
        prices = {
            name: price(name, dag.precision(name), effective)
            for name in dag.topo_order()
        }
        self._state = _MapperState(
            dag.version,
            dag.structure_version,
            effective,
            prices,
            frozenset(dag.weighted_ops()),
            weight_buckets(dag),
            optimizer_pass_seconds(dag.total_weight_elems(), self.device),
        )
        self.full_rebuilds += 1

    # ------------------------------------------------------------------
    # per-op pricing
    # ------------------------------------------------------------------
    def _price_fresh(
        self, name: str, assigned: Precision, effective: dict[str, Precision]
    ) -> OpPrice:
        """Price one op from scratch through the module-level segment
        functions and the memory policy."""
        fwd = catalog_forward_segment(
            self.dag, self.catalog, self.cast_calc, name, effective
        )
        bwd = catalog_backward_segment(
            self.dag, self.catalog, self.cast_calc, name, effective
        )
        wcopy, act = op_memory_contribution(
            self.dag.spec(name), assigned, effective[name]
        )
        return OpPrice.of(fwd, bwd, wcopy, act)

    def _price(
        self, name: str, assigned: Precision, effective: dict[str, Precision]
    ) -> OpPrice:
        """:meth:`_price_fresh`, memoized on the op's precision context.

        Forward casts read the predecessors' effective precisions, gradient
        casts the successors', kernels and memory the op's own assigned and
        effective precisions; the DAG's specs and edges, the catalog, the
        cast model and the device are fixed per memo (every mapper sharing
        one prices a copy of one template with the same catalog, cast
        model and device).  So ``(op, assigned, effective of the op, of each
        predecessor, of each successor)`` determines the price, and equal
        keys return the very record a fresh derivation would rebuild.
        :meth:`refresh` swaps in a fresh private memo when the DAG's
        structure moves.
        """
        context = self._contexts.get(name)
        if context is None:
            context = operator.itemgetter(
                name, *self.dag.predecessors(name), *self.dag.successors(name)
            )
            self._contexts[name] = context
        key = (name, assigned, context(effective))
        price = self._prices.get(key)
        if price is None:
            price = self._price_fresh(name, assigned, effective)
            self._prices[key] = price
        return price

    # ------------------------------------------------------------------
    # incremental refresh (the Replayer's fast path)
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring the retained state up to the DAG's current version,
        re-deriving only the dirty ops' affected neighbourhood (no DFG
        assembly — :meth:`current_dfg` does that on demand).  Prices come
        from the memo (:meth:`_price`), the first derivation's included, so
        a mapper handed a session's memo derives its first DFG from it.
        Whenever the DAG's structure has moved, a fresh private memo
        replaces the old one here (which is never cleared: other mappers
        may share it) and the re-derivation prices fresh, as
        :meth:`build_local_dfg` does.

        This is Algorithm 1's incremental CostMapping after its line 3
        (UpdateDAG, the caller's ``set_precision``): the BFS of lines 16-19
        is :func:`propagate_dirty`, which re-resolves only the dependent
        cone downstream of the dirty ops and stops where effective
        precisions come out unchanged; casts and pure-kernel costs are
        re-priced only for the changed ops and their one-hop neighbours.
        Bucket membership and the optimizer pass are structural and never
        recomputed here.  The result is node-for-node identical to a
        from-scratch :meth:`build_local_dfg` (equivalence-tested)."""
        if self._memo_structure != self.dag.structure_version:
            self._memo_structure = self.dag.structure_version
            self._prices = {}
            self._contexts = {}
        state = self._state
        if state is None:
            self._full_derive(self._price)
            return
        if state.structure != self.dag.structure_version:
            self._full_derive(self._price_fresh)
            return
        if state.version == self.dag.version:
            return
        dirty = self.dag.dirty_since(state.version)
        effective = state.effective
        changed = propagate_dirty(self.dag, effective, dirty)
        affected = set(changed)
        for name in changed:
            affected.update(self.dag.successors(name))
            affected.update(self.dag.predecessors(name))
        # Memory contributions depend on assigned + effective precisions
        # only, so dirty ∪ changed would suffice; the affected superset is
        # used for uniformity (re-pricing an unchanged op is idempotent).
        affected.update(dirty)
        for name in affected:
            state.set_price(
                name, self._price(name, self.dag.precision(name), effective)
            )
        state.version = self.dag.version
        state.workspace = None
        state.dfg = None  # stale assembly
        state.dfg_key = None
        self.incremental_updates += 1

    def current_dfg(self, device_name: str, rank: int) -> LocalDFG:
        """Return a DFG consistent with the DAG's current precisions,
        reusing the retained per-op segments for everything outside the
        dirty ops' affected neighbourhood."""
        self.refresh()
        state = self._state
        assert state is not None
        if state.dfg is not None and state.dfg_key == (device_name, rank):
            return state.dfg
        return self._assemble(device_name, rank)

    def compute_time(self) -> float:
        """The ``compute_time`` of the DFG :meth:`current_dfg` would
        assemble, without assembling it: the retained forward sums in
        topological order, the backward sums in reverse topological order
        (empty segments skipped, as
        :func:`~repro.core.dfg.assemble_execution_line` skips them), plus the
        optimizer pass — the same float additions in the same order, so
        the result is bit-identical."""
        self.refresh()
        state = self._state
        assert state is not None
        topo = self.dag.topo_order()
        lookup = state.prices.__getitem__
        fwd_total = 0.0
        for price in map(lookup, topo):
            if price.fwd:
                fwd_total += price.fwd_dur
        bwd_total = 0.0
        for price in map(lookup, reversed(topo)):
            if price.bwd:
                bwd_total += price.bwd_dur
        return fwd_total + bwd_total + state.optimizer_s

    def memory_components(self) -> tuple[int, int, int]:
        """(weight-copy bytes, activation bytes, workspace bytes) under the
        current precisions, maintained incrementally.  Refreshes the
        retained state first; the structural terms (master weights,
        gradients, optimizer state) are precision-independent and live with
        the caller's :class:`~repro.profiling.memory.MemoryModel`."""
        self.refresh()
        state = self._state
        assert state is not None
        if state.workspace is None:
            state.workspace = int(sum(heapq.nlargest(2, state.mem_act.values())))
        return state.mem_wcopy_total, state.mem_act_total, state.workspace

    # ------------------------------------------------------------------
    # kernel lowering support (repro.kernel): only the batched what-ifs of
    # Replayer.whatif_candidates lower a mapper; simulate() never does
    # ------------------------------------------------------------------
    def kernel_layout(self) -> LocalLayout:
        """The per-op stream layout of the current state, for
        :func:`repro.kernel.compile_local`.

        Plain Python data in the exact orders
        :func:`~repro.core.dfg.assemble_execution_line` consumes —
        forward sums in topological order, backward segment metadata in
        reverse topological order, plus the weighted-op positions whose
        consecutive slices are the gradient buckets.
        """
        self.refresh()
        state = self._state
        assert state is not None
        topo = self.dag.topo_order()
        rev_ops = tuple(reversed(topo))
        weighted = state.weighted
        prices = state.prices
        return LocalLayout(
            rev_ops=rev_ops,
            seg_lens=tuple(len(prices[n].bwd) for n in rev_ops),
            bwd_pos=tuple(
                -1 if prices[n].bwd_pos is None else prices[n].bwd_pos
                for n in rev_ops
            ),
            fwd_sums_topo=tuple(prices[n].fwd_dur for n in topo),
            bwd_sums=tuple(prices[n].bwd_dur for n in rev_ops),
            weighted=tuple(
                i for i, n in enumerate(rev_ops) if n in weighted
            ),
        )

    def whatif_change(self, op: str, new_precision: Precision) -> WhatIfChange:
        """Describe a single-op precision change without applying it.

        The mutation-free twin of ``set_precision`` + :meth:`refresh`: the
        hypothetical assignment is resolved against a scratch copy of the
        effective precisions (``propagate_dirty`` with an override, the DAG
        version untouched), and the affected neighbourhood is priced through
        the same memoized :meth:`_price` the sequential path's :meth:`refresh`
        uses — so a kernel splice of the result is bit-identical to apply +
        simulate + revert, and a candidate that is later applied finds its
        prices already memoized.
        """
        spec = self.dag.spec(op)
        if not spec.is_adjustable:
            raise ValueError(f"operator {op!r} is not precision-adjustable")
        if new_precision not in spec.supported_precisions():
            raise ValueError(f"{op!r} has no {new_precision.value} kernel")
        self.refresh()
        state = self._state
        assert state is not None
        effective = dict(state.effective)
        changed = propagate_dirty(
            self.dag, effective, {op}, overrides={op: new_precision}
        )
        affected = set(changed)
        for name in changed:
            affected.update(self.dag.successors(name))
            affected.update(self.dag.predecessors(name))
        affected.add(op)
        fwd_sums: dict[str, float] = {}
        bwd_sums: dict[str, float] = {}
        bwd_durs: dict[str, tuple] = {}
        bwd_pos: dict[str, int] = {}
        wcopy_total = state.mem_wcopy_total
        act_total = state.mem_act_total
        act_new: dict[str, int] = {}
        for name in sorted(affected):
            assigned = (
                new_precision if name == op else self.dag.precision(name)
            )
            price = self._price(name, assigned, effective)
            fwd_sums[name] = price.fwd_dur
            bwd_sums[name] = price.bwd_dur
            bwd_durs[name] = tuple(node.duration for node in price.bwd)
            bwd_pos[name] = -1 if price.bwd_pos is None else price.bwd_pos
            old = state.prices[name]
            wcopy_total += price.wcopy - old.wcopy
            act_total += price.act - old.act
            act_new[name] = price.act
        merged_act = dict(state.mem_act)
        merged_act.update(act_new)
        workspace = int(sum(heapq.nlargest(2, merged_act.values())))
        return WhatIfChange(
            op=op,
            precision=new_precision,
            fwd_sums=fwd_sums,
            bwd_sums=bwd_sums,
            bwd_durs=bwd_durs,
            bwd_pos=bwd_pos,
            wcopy_total=wcopy_total,
            act_total=act_total,
            workspace=workspace,
        )
