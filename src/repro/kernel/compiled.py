"""Fingerprint-keyed lowering of LocalDFGs to frozen float64 arrays.

``compile_local`` captures everything one rank contributes to Eq. (6) —
bucket-ready times, stream totals, the optimizer — plus (optionally) a
per-op layout of the backward stream so :mod:`repro.kernel.batch` can
re-linearize candidate segment swaps without touching the object graph.
``compile_global`` composes per-rank compilations with the priced bucket
durations; ``evaluate`` plays the recurrence.

The lowering is *descriptive*, never *authoritative*: durations, anchors
and bucket membership are read off an already-assembled
:class:`~repro.core.dfg.LocalDFG` (and the cost mapper's layout), and any
precondition the kernel cannot honour — non-positional bucket indices, a
layout inconsistent with the streams — degrades to the eval-only or object
path instead of guessing.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def _frozen(arr):
    """Publish an array read-only (RPR007: consumers copy, never write)."""
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class LocalLayout:
    """Plain per-op layout of one rank's streams, in mapper order.

    Extracted by :meth:`repro.core.cost_mapper.CostMapper.kernel_layout`;
    pure Python data so the kernel never imports upward.  The sum tuples
    preserve the exact order the object path adds them — forward totals
    accumulate per-op in topological order, backward totals per-op in
    reverse topological (backward completion) order — because float
    addition is order-sensitive and the kernel must re-accumulate
    bit-identically.
    """

    #: Op names in reverse topological order (the backward walk order).
    rev_ops: tuple
    #: Backward-stream nodes contributed per op, aligned with ``rev_ops``.
    seg_lens: tuple
    #: Offset of the op's BACKWARD node within its segment, -1 when the
    #: segment has none (zero-cost backward anchored to its predecessor).
    bwd_pos: tuple
    #: Per-op forward-segment duration sums in *topological* order.
    fwd_sums_topo: tuple
    #: Per-op backward-segment duration sums, aligned with ``rev_ops``.
    bwd_sums: tuple
    #: Indices into ``rev_ops`` of weighted ops, ascending — the backward
    #: completion sequence that DDP bucketing slices into buckets.
    weighted: tuple


class CompiledLocal:
    """One rank's execution line as frozen arrays (+ optional op layout)."""

    __slots__ = (
        "device_name",
        "rank",
        "fwd_total",
        "bwd_total",
        "compute_end",
        "opt",
        "ready",
        "bwd_durs",
        "bucket_nbytes",
        "op_pos",
        "n_ops",
        "seg_len",
        "seg_start",
        "bwd_pos",
        "fwd_sums",
        "bwd_sums",
        "weighted_pos",
        "bucket_starts",
    )

    def __init__(self, device_name: str, rank: int) -> None:
        self.device_name = device_name
        self.rank = rank
        self.op_pos: dict[str, int] | None = None
        self.n_ops = 0

    @property
    def has_layout(self) -> bool:
        """True when candidate rows can be derived from this compilation."""
        return self.op_pos is not None


def compile_local(ldfg, layout: LocalLayout | None = None):
    """Lower ``ldfg`` to a :class:`CompiledLocal`, or ``None``.

    Returns ``None`` when bucket indices are not positional (callers fall
    back to the object path).  A ``layout`` that
    fails its consistency checks against the streams yields an *eval-only*
    compilation — :func:`evaluate` still works, candidate batching
    degrades to sequential simulate.
    """
    buckets = ldfg.buckets
    for n, bucket in enumerate(buckets):
        if bucket.index != n:
            return None

    cl = CompiledLocal(ldfg.device_name, ldfg.rank)
    cl.fwd_total = ldfg.forward_time
    cl.bwd_total = ldfg.backward_time
    # Same addition the recurrence performs per call (fwd + bwd).
    cl.compute_end = ldfg.forward_time + ldfg.backward_time
    cl.opt = ldfg.optimizer.duration if ldfg.optimizer else 0.0
    ready_map = ldfg.bucket_ready_times()
    cl.ready = _frozen(
        np.array([ready_map[b.index] for b in buckets], dtype=np.float64)
    )
    cl.bwd_durs = _frozen(
        np.array([node.duration for node in ldfg.backward], dtype=np.float64)
    )
    cl.bucket_nbytes = tuple(b.nbytes for b in buckets)
    if layout is None:
        return cl

    n_ops = len(layout.rev_ops)
    if sum(layout.seg_lens) != len(ldfg.backward):
        return cl  # layout drifted from the streams: eval-only
    members: list[str] = []
    starts: list[int] = []
    count = 0
    for bucket in buckets:
        starts.append(count)
        members.extend(bucket.ops)
        count += len(bucket.ops)
    if tuple(members) != tuple(layout.rev_ops[i] for i in layout.weighted):
        return cl  # bucket membership is not the weighted sequence

    seg_len = np.asarray(layout.seg_lens, dtype=np.int64)
    seg_start = np.zeros(n_ops, dtype=np.int64)
    if n_ops > 1:
        np.cumsum(seg_len[:-1], out=seg_start[1:])
    cl.seg_len = _frozen(seg_len)
    cl.seg_start = _frozen(seg_start)
    cl.bwd_pos = _frozen(np.asarray(layout.bwd_pos, dtype=np.int64))
    cl.fwd_sums = _frozen(np.asarray(layout.fwd_sums_topo, dtype=np.float64))
    cl.bwd_sums = _frozen(np.asarray(layout.bwd_sums, dtype=np.float64))
    cl.weighted_pos = _frozen(np.asarray(layout.weighted, dtype=np.int64))
    cl.bucket_starts = _frozen(np.asarray(starts, dtype=np.int64))
    cl.op_pos = {name: i for i, name in enumerate(layout.rev_ops)}
    cl.n_ops = n_ops
    return cl


class CompiledGlobal:
    """Distinct compiled locals + priced collectives, evaluation-ready."""

    __slots__ = (
        "locals",
        "local_of_rank",
        "n_buckets",
        "durations",
        "dur_list",
        "colmax",
        "colmax_list",
        "colmax_without",
        "compute_ends",
        "compute_ends_list",
        "opts",
        "opts_list",
        "rank_ends",
    )


def compile_global(rank_locals, durations):
    """Compose ``(rank, CompiledLocal)`` pairs with priced bucket durations.

    ``rank_locals`` comes in cluster worker order; shared compilations
    (the ranks of one Replayer rank group) are deduplicated by identity —
    identity, not equality, because a shared compilation is how the
    Replayer expresses "same plan".  ``durations`` must be priced by the caller through the same
    ``bucket_comm_durations`` the recurrence uses, so pricing cannot
    drift between the two.  Returns ``None`` for an empty ``rank_locals``.
    """
    if not rank_locals:
        return None
    distinct: list[CompiledLocal] = []
    local_of_rank: dict[int, int] = {}
    for rank, cl in rank_locals:
        pos = -1
        for i, seen in enumerate(distinct):
            if seen is cl:
                pos = i
                break
        if pos < 0:
            pos = len(distinct)
            distinct.append(cl)
        local_of_rank[rank] = pos

    n_buckets = int(distinct[0].ready.shape[0])
    for cl in distinct:
        if int(cl.ready.shape[0]) != n_buckets:
            raise ValueError("compiled locals disagree on bucket count")
    if len(durations) != n_buckets:
        raise ValueError("durations do not match the bucket count")

    cg = CompiledGlobal()
    cg.locals = tuple(distinct)
    cg.local_of_rank = local_of_rank
    cg.n_buckets = n_buckets
    cg.durations = _frozen(np.asarray(durations, dtype=np.float64))
    cg.dur_list = [float(d) for d in durations]

    ready_matrix = np.stack([cl.ready for cl in distinct])
    colmax = ready_matrix.max(axis=0)
    cg.colmax = _frozen(colmax)
    cg.colmax_list = colmax.tolist()
    without = np.full((len(distinct), n_buckets), -np.inf)
    if len(distinct) > 1:
        for i in range(len(distinct)):
            without[i] = np.delete(ready_matrix, i, axis=0).max(axis=0)
    cg.colmax_without = _frozen(without)

    compute_ends = np.array([cl.compute_end for cl in distinct])
    opts = np.array([cl.opt for cl in distinct])
    cg.compute_ends = _frozen(compute_ends)
    cg.compute_ends_list = compute_ends.tolist()
    cg.opts = _frozen(opts)
    cg.opts_list = opts.tolist()
    # Per rank, in worker order: (rank, compute_end + opt, compute_end) —
    # the object path's compute_time addition order ((fwd + bwd) + opt).
    cg.rank_ends = tuple(
        (rank, cl.compute_end + cl.opt, cl.compute_end)
        for rank, cl in rank_locals
    )
    return cg


def evaluate(cg: CompiledGlobal):
    """One Eq. (6) evaluation; returns ``(iteration_time, comm_end_final)``.

    The bucket recurrence stays a sequential scalar loop over Python
    floats in the recurrence's operation order — comm start is the max of the
    slowest rank's readiness and the previous collective's end, comm end
    adds the priced duration.  (A cumsum + maximum.accumulate closed form
    reassociates the additions and breaks bit parity with
    ``execute_global_dfg``.)
    """
    end = 0.0
    for cmax, dur in zip(cg.colmax_list, cg.dur_list):
        start = cmax if cmax > end else end
        end = start + dur
    iteration = 0.0
    for ce, opt in zip(cg.compute_ends_list, cg.opts_list):
        done = ce if ce > end else end
        finish = done + opt
        if finish > iteration:
            iteration = finish
    return iteration, end
