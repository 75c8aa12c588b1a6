"""Local and global data-flow graphs (Sec. IV-B).

QSync maintains three graphs per device: the Precision DAG (model structure +
precisions; :mod:`repro.graph.dag`), the **local DFG** (the execution line of
one training iteration: forward ops, casts, backward ops, optimizer, and the
communication slots), and the **global DFG** (all local DFGs plus their
communication dependencies).  The Replayer simulates the global DFG.

Execution model (PyTorch-DDP-like): each device owns a CUDA stream executing
forward then backward nodes in order, and a COMM stream executing gradient
all-reduce buckets.  A bucket becomes ready once the backward node producing
its last gradient finishes; collectives are synchronous across devices and
ordered, giving exactly the recurrence of Eq. (6).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.common.dtypes import Precision
from repro.common.units import MB


class NodeKind(enum.Enum):
    FORWARD = "fwd"
    BACKWARD = "bwd"
    CAST = "cast"
    COMM = "comm"
    OPTIMIZER = "opt"


class Stream(enum.Enum):
    CUDA = "cuda"
    COMM = "comm"


@dataclasses.dataclass(slots=True)
class DFGNode:
    """One schedulable unit of work on a device stream.

    Slotted: the object paths allocate these by the hundred thousand per
    planning run (every segment re-derivation builds fresh nodes), and the
    compiled kernel (:mod:`repro.kernel`) reads ``duration`` off each one
    exactly once at lowering time."""

    name: str
    kind: NodeKind
    duration: float
    stream: Stream = Stream.CUDA
    #: Source operator in the Precision DAG, when applicable.
    op: str | None = None
    #: For COMM nodes: index of the gradient bucket.
    bucket: int | None = None

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative duration on node {self.name!r}")


@dataclasses.dataclass
class CommBucket:
    """One gradient all-reduce bucket."""

    index: int
    nbytes: int
    #: Ops whose weight gradients live in this bucket.
    ops: tuple[str, ...]


class LocalDFG:
    """One device's execution line for a single training iteration."""

    def __init__(self, device_name: str, rank: int) -> None:
        self.device_name = device_name
        self.rank = rank
        self.forward: list[DFGNode] = []
        self.backward: list[DFGNode] = []
        self.optimizer: DFGNode | None = None
        self.buckets: list[CommBucket] = []
        #: bucket index -> index into ``backward`` after whose completion the
        #: bucket is ready for all-reduce (-1 = ready when the forward ends,
        #: i.e. before any backward node runs).
        self.bucket_ready_after: dict[int, int] = {}
        # Running stream totals, maintained on append so the hot replay loop
        # never re-sums node lists.
        self._fwd_total = 0.0
        self._bwd_total = 0.0
        self._ready_cache: dict[int, float] | None = None

    # ------------------------------------------------------------------
    def add_forward(self, node: DFGNode) -> None:
        self.forward.append(node)
        self._fwd_total += node.duration
        self._ready_cache = None

    def add_backward(self, node: DFGNode) -> None:
        self.backward.append(node)
        self._bwd_total += node.duration
        self._ready_cache = None

    def set_optimizer(self, duration: float) -> None:
        self.optimizer = DFGNode("optimizer", NodeKind.OPTIMIZER, duration)

    def set_buckets(
        self, buckets: list[CommBucket], ready_after: dict[int, int]
    ) -> None:
        if sorted(ready_after) != [b.index for b in buckets]:
            raise ValueError("every bucket needs a readiness point")
        self.buckets = buckets
        self.bucket_ready_after = ready_after
        self._ready_cache = None

    def load_streams(
        self,
        forward: list[DFGNode],
        backward: list[DFGNode],
        forward_time: float,
        backward_time: float,
    ) -> None:
        """Install pre-built node streams with precomputed totals (the
        :func:`assemble_execution_line` path)."""
        self.forward = forward
        self.backward = backward
        self._fwd_total = forward_time
        self._bwd_total = backward_time
        self._ready_cache = None

    def view_for_rank(self, rank: int) -> "LocalDFG":
        """A lightweight alias of this DFG under another rank.

        The ranks of one Replayer rank group share a DAG and so a plan: the
        Replayer builds one DFG per group and hands each other rank a view
        that shares every node list (read-only by convention; the cost
        mapper never mutates a published DFG — incremental updates assemble
        a fresh one).
        """
        view = LocalDFG(self.device_name, rank)
        view.forward = self.forward
        view.backward = self.backward
        view.optimizer = self.optimizer
        view.buckets = self.buckets
        view.bucket_ready_after = self.bucket_ready_after
        view._fwd_total = self._fwd_total
        view._bwd_total = self._bwd_total
        view._ready_cache = self._ready_cache
        return view

    # ------------------------------------------------------------------
    @property
    def forward_time(self) -> float:
        return self._fwd_total

    @property
    def backward_time(self) -> float:
        return self._bwd_total

    @property
    def compute_time(self) -> float:
        opt = self.optimizer.duration if self.optimizer else 0.0
        return self.forward_time + self.backward_time + opt

    def cast_time(self) -> float:
        """Total casting overhead in this DFG (diagnostics / Fig. 4)."""
        return sum(
            n.duration
            for n in (*self.forward, *self.backward)
            if n.kind is NodeKind.CAST
        )

    def bucket_ready_times(self) -> dict[int, float]:
        """Bucket index -> CUDA-stream time its gradients are complete,
        measured from forward start.

        Computed from a prefix sum over the backward stream so multiple
        buckets may share one readiness index (e.g. a zero-backward-cost op
        anchored to its nearest preceding backward node) and index ``-1``
        means ready at forward end.  Cached until a node or the bucket map
        changes; callers must treat the returned dict as read-only.
        """
        if self._ready_cache is not None:
            return self._ready_cache
        prefix = [self.forward_time]
        for node in self.backward:
            prefix.append(prefix[-1] + node.duration)
        last = len(self.backward) - 1
        ready: dict[int, float] = {}
        for b in self.buckets:
            idx = self.bucket_ready_after.get(b.index, last)
            idx = min(idx, last)  # defensive: clamp stale indices to the end
            ready[b.index] = prefix[idx + 1] if idx >= 0 else prefix[0]
        self._ready_cache = ready
        return ready


class GlobalDFG:
    """All local DFGs plus the synchronous-collective dependency."""

    def __init__(self, locals_: Iterable[LocalDFG]) -> None:
        self.locals = list(locals_)
        if not self.locals:
            raise ValueError("global DFG needs at least one local DFG")
        n_buckets = {len(ld.buckets) for ld in self.locals}
        if len(n_buckets) != 1:
            raise ValueError(
                f"devices disagree on bucket count: {sorted(n_buckets)} — "
                "synchronous data parallelism requires identical bucketing"
            )

    @property
    def n_buckets(self) -> int:
        return len(self.locals[0].buckets)


def bucket_readiness_from_stream(
    backward: list[DFGNode],
    buckets: list[CommBucket],
    anchors: dict[str, int],
) -> dict[int, int]:
    """Readiness indices for :meth:`LocalDFG.set_buckets` from per-op anchors.

    ``anchors`` maps each weighted op to the index of the backward-stream
    node after which its gradient exists: its own BACKWARD node, or — when
    its backward cost rounds to zero — the nearest *preceding* node (index
    -1 = ready at forward end), never the pessimistic end of the stream.
    A bucket is ready after the latest anchor among its ops; ops missing
    from ``anchors`` defensively defer to the end of the stream.

    The readiness rule of :func:`assemble_execution_line`, the one walk every
    DFG builder (Cost Mapper, ground truth, Dpro) runs.
    """
    last = len(backward) - 1
    return {
        bucket.index: max(
            (anchors.get(op, last) for op in bucket.ops), default=last
        )
        for bucket in buckets
    }


def assign_buckets(
    weighted_ops_reverse: list[tuple[str, int]],
    bucket_cap_bytes: int = 25 * MB,
) -> list[CommBucket]:
    """Group weight gradients into DDP-style buckets.

    ``weighted_ops_reverse`` lists (op, grad_bytes) in *backward completion
    order* (reverse topological).  Buckets fill greedily to the cap, like
    torch.distributed's 25 MB default.
    """
    buckets: list[CommBucket] = []
    cur_ops: list[str] = []
    cur_bytes = 0
    for op, nbytes in weighted_ops_reverse:
        cur_ops.append(op)
        cur_bytes += nbytes
        if cur_bytes >= bucket_cap_bytes:
            buckets.append(CommBucket(len(buckets), cur_bytes, tuple(cur_ops)))
            cur_ops, cur_bytes = [], 0
    if cur_ops:
        buckets.append(CommBucket(len(buckets), cur_bytes, tuple(cur_ops)))
    return buckets


def weight_buckets(dag, bucket_cap_bytes: int = 25 * MB) -> list[CommBucket]:
    """A DAG's DDP buckets: its weighted ops' FP32 gradients in backward
    completion order, packed by :func:`assign_buckets`.  Precision-
    independent — it reads only the graph structure."""
    return assign_buckets(
        [
            (name, dag.spec(name).weight_elems * Precision.FP32.nbytes)
            for name in reversed(dag.weighted_ops())
        ],
        bucket_cap_bytes,
    )


class OpPrice(NamedTuple):
    """Everything one op contributes to an execution line: its forward and
    backward nodes, their duration sums (Python ``sum`` over the nodes,
    the order every consumer relies on), the BACKWARD node's offset within
    the backward segment (``None`` when its backward cost rounded to zero)
    and, for the Cost Mapper's memory model, its ``op_memory_contribution``
    pair."""

    fwd: tuple[DFGNode, ...]
    bwd: tuple[DFGNode, ...]
    fwd_dur: float
    bwd_dur: float
    bwd_pos: int | None
    wcopy: int = 0
    act: int = 0

    @classmethod
    def of(
        cls,
        fwd: Sequence[DFGNode],
        bwd: Sequence[DFGNode],
        wcopy: int = 0,
        act: int = 0,
    ) -> "OpPrice":
        """The record of two node segments: sums and BACKWARD offset
        derived from the nodes."""
        pos = None
        for i, node in enumerate(bwd):
            if node.kind is NodeKind.BACKWARD:
                pos = i
        return cls(
            tuple(fwd),
            tuple(bwd),
            sum(node.duration for node in fwd),
            sum(node.duration for node in bwd),
            pos,
            wcopy,
            act,
        )


def price_segments(topo: Sequence[str], forward_segment, backward_segment):
    """``op -> OpPrice`` from two per-op segment functions.

    Calls ``forward_segment`` for every op in topological order, then
    ``backward_segment`` for every op in reverse topological order — the
    fixed call order that keeps a stateful pricer (the ground truth's
    jitter stream) reproducible.
    """
    fwd = [forward_segment(name) for name in topo]
    bwd = {name: backward_segment(name) for name in reversed(topo)}
    return {name: OpPrice.of(f, bwd[name]) for name, f in zip(topo, fwd)}


def assemble_execution_line(
    device_name: str,
    rank: int,
    topo: Sequence[str],
    prices: Mapping[str, OpPrice],
    weighted,
    buckets: list[CommBucket],
    optimizer_s: float,
) -> LocalDFG:
    """Build one rank's :class:`LocalDFG` from per-op price records.

    The one walk every builder shares — the Cost Mapper, the ground truth
    and Dpro differ only in how they price ops.  Forward segments in
    ``topo`` order; backward segments in reverse order, tracking each
    ``weighted`` op's readiness anchor: its BACKWARD node, else the last
    node of its segment, else — when its backward cost rounds to zero —
    the nearest *preceding* backward-stream node (index -1 = ready at
    forward end), never the pessimistic end of the stream.  Stream totals
    add the records' segment sums in walk order (empty segments skipped).
    """
    forward: list[DFGNode] = []
    fwd_total = 0.0
    for name in topo:
        price = prices[name]
        if price.fwd:
            forward.extend(price.fwd)
            fwd_total += price.fwd_dur
    backward: list[DFGNode] = []
    bwd_total = 0.0
    anchors: dict[str, int] = {}
    for name in reversed(topo):
        price = prices[name]
        seg = price.bwd
        base = len(backward)
        if seg:
            backward.extend(seg)
            bwd_total += price.bwd_dur
        if name in weighted:
            pos = price.bwd_pos
            anchors[name] = base + pos if pos is not None else base + len(seg) - 1
    dfg = LocalDFG(device_name, rank)
    dfg.load_streams(forward, backward, fwd_total, bwd_total)
    dfg.set_buckets(
        buckets, bucket_readiness_from_stream(backward, buckets, anchors)
    )
    dfg.set_optimizer(optimizer_s)
    return dfg
