"""Batched what-if evaluation: many candidate plans, one array sweep.

The allocator's recovery loop historically evaluated each candidate
promotion with a full ``Replayer.simulate()`` — apply, rebuild, replay,
revert.  Here a candidate is a *segment swap*: the cost mapper's
mutation-free what-if (``CostMapper.whatif_change``) describes the affected
ops' new forward/backward segments, :func:`candidate_row` splices them into
the compiled base to recover the candidate's bucket-ready row and compute
end, and :func:`simulate_batch` plays Eq. (6) for every row at once —
vectorized *across candidates*, sequential *across buckets*, so each lane
reproduces the scalar recurrence bit-for-bit.

Candidate data is expressed as replacement values, never additive deltas:
``base + (new - base)`` does not round-trip in float64, splicing does.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from repro.kernel.compiled import CompiledGlobal, CompiledLocal


def candidate_row(cl: CompiledLocal, change):
    """Bucket-ready row + compute end for one candidate segment swap.

    ``change`` is duck-typed (the cost mapper's what-if record): mappings
    ``fwd_sums``/``bwd_sums`` (op -> new per-op duration sum),
    ``bwd_durs`` (op -> new backward node durations, in stream order) and
    ``bwd_pos`` (op -> BACKWARD offset within the segment, -1 when none),
    covering every affected op.  Returns ``(ready_row, compute_end)`` or
    ``None`` when ``cl`` carries no op-level layout — the caller falls
    back to sequential simulation.

    Bit parity: stream totals re-add the per-op sums left to right in the
    exact object-path order, and the node prefix re-accumulates over the
    spliced backward stream exactly as ``LocalDFG.bucket_ready_times``
    does.  The splice works on Python lists copied off the frozen base: one
    candidate touches a few ops, and per-call numpy overhead would cost
    more than the arithmetic.
    """
    if cl.op_pos is None:
        return None
    swaps = {}
    for name in change.bwd_durs:
        p = cl.op_pos.get(name)
        if p is None:
            return None  # affected op unknown to the layout: bail out
        swaps[p] = name
    n_ops = cl.n_ops

    # Forward sums live in topo order, backward sums and segments in
    # reverse topo order — both as the mapper adds them.  Splice the
    # backward stream in the same pass: base slices, swapped segments.
    fwd = cl.fwd_sums.tolist()
    bwd = cl.bwd_sums.tolist()
    lens = cl.seg_len.tolist()
    bpos = cl.bwd_pos.tolist()
    seg_start = cl.seg_start.tolist()
    base = cl.bwd_durs.tolist()
    durs: list[float] = []
    prev = 0
    for p in sorted(swaps):
        name = swaps[p]
        fwd[(n_ops - 1) - p] = change.fwd_sums[name]
        bwd[p] = change.bwd_sums[name]
        seg = change.bwd_durs[name]
        durs += base[prev:seg_start[p]]
        durs += seg
        prev = seg_start[p] + lens[p]
        lens[p] = len(seg)
        bpos[p] = change.bwd_pos[name]
    durs += base[prev:]
    fwd_total = reduce(add, fwd) if n_ops else 0.0
    bwd_total = reduce(add, bwd) if n_ops else 0.0

    # prefix[k] = forward end + first k backward durations (bit-identical
    # to the bucket_ready_times prefix loop); a bucket is ready after the
    # latest anchor among its weighted ops, anchor -1 = forward end.
    prefix = list(accumulate(durs, initial=fwd_total))
    starts = list(accumulate(lens, initial=0))
    anchors = [
        starts[w] + (bpos[w] if bpos[w] >= 0 else lens[w] - 1)
        for w in cl.weighted_pos.tolist()
    ]
    last = len(durs) - 1
    bucket_starts = cl.bucket_starts.tolist()
    row = [
        prefix[min(max(anchors[s:e]) if e > s else anchors[s], last) + 1]
        for s, e in zip(bucket_starts, bucket_starts[1:] + [len(anchors)])
    ]
    return np.array(row, dtype=np.float64), fwd_total + bwd_total


def simulate_batch(cg: CompiledGlobal, rows, local_indices, compute_ends):
    """Iteration times for a batch of candidates in one sweep.

    ``rows[i]`` is candidate ``i``'s bucket-ready row, ``local_indices[i]``
    the index (into ``cg.locals``) of the compiled local it replaces, and
    ``compute_ends[i]`` its new compute end.  Everything else stays at the
    compiled base — exactly the allocator's one-op-at-a-time what-if.

    Returns a float64 vector of iteration times; row ``i`` equals a
    sequential apply + simulate + revert of candidate ``i`` bit-for-bit
    (vectorized across candidates; the bucket loop stays sequential).
    """
    n_cands = len(rows)
    if n_cands == 0:
        return np.zeros(0, dtype=np.float64)
    li = np.asarray(local_indices, dtype=np.int64)
    end = np.zeros(n_cands, dtype=np.float64)
    if cg.n_buckets:
        ready = np.maximum(cg.colmax_without[li], np.stack(rows))
        for n in range(cg.n_buckets):
            np.maximum(ready[:, n], end, out=end)
            end += cg.durations[n]
    ends = np.repeat(cg.compute_ends[np.newaxis, :], n_cands, axis=0)
    ends[np.arange(n_cands), li] = compute_ends
    np.maximum(ends, end[:, np.newaxis], out=ends)
    ends += cg.opts[np.newaxis, :]
    return ends.max(axis=1)
