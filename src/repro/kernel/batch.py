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

    Bit parity: stream totals re-accumulate over per-op sums in the exact
    object-path order (``np.add.accumulate`` == the Python prefix loop),
    and the node prefix re-accumulates over the spliced backward stream
    exactly as ``LocalDFG.bucket_ready_times`` does.
    """
    if cl.op_pos is None:
        return None
    names = list(change.bwd_durs)
    pos = []
    for name in names:
        p = cl.op_pos.get(name)
        if p is None:
            return None  # affected op unknown to the layout: bail out
        pos.append(p)
    idx = np.asarray(pos, dtype=np.int64)
    n_ops = cl.n_ops

    # Stream totals: scatter the affected ops' new sums into the per-op
    # arrays, re-accumulate sequentially.  Forward sums live in topo order,
    # backward sums in reverse topo order — both as the mapper adds them.
    fwd = np.array(cl.fwd_sums)
    fwd[(n_ops - 1) - idx] = [change.fwd_sums[name] for name in names]
    fwd_total = float(np.add.accumulate(fwd)[-1]) if n_ops else 0.0
    bwd = np.array(cl.bwd_sums)
    bwd[idx] = [change.bwd_sums[name] for name in names]
    bwd_total = float(np.add.accumulate(bwd)[-1]) if n_ops else 0.0

    # Splice the backward stream: keep base slices, swap affected segments.
    lens = np.array(cl.seg_len)
    lens[idx] = [len(change.bwd_durs[name]) for name in names]
    bpos = np.array(cl.bwd_pos)
    bpos[idx] = [change.bwd_pos[name] for name in names]
    starts = np.zeros(n_ops, dtype=np.int64)
    if n_ops > 1:
        np.cumsum(lens[:-1], out=starts[1:])
    pieces = []
    prev = 0
    for p, name in sorted(zip(pos, names)):
        s = int(cl.seg_start[p])
        if s > prev:
            pieces.append(cl.bwd_durs[prev:s])
        seg = change.bwd_durs[name]
        if seg:
            pieces.append(np.asarray(seg, dtype=np.float64))
        prev = s + int(cl.seg_len[p])
    if prev < cl.bwd_durs.shape[0]:
        pieces.append(cl.bwd_durs[prev:])
    if pieces:
        flat = np.concatenate(pieces)
    else:
        flat = np.zeros(0, dtype=np.float64)

    # prefix[k] = forward end + first k backward durations (bit-identical
    # to the bucket_ready_times prefix loop).
    head = np.empty(flat.shape[0] + 1, dtype=np.float64)
    head[0] = fwd_total
    head[1:] = flat
    prefix = np.add.accumulate(head)

    n_buckets = cl.ready.shape[0]
    if n_buckets:
        w_len = lens[cl.weighted_pos]
        w_pos = bpos[cl.weighted_pos]
        anchors = starts[cl.weighted_pos] + np.where(w_pos >= 0, w_pos, w_len - 1)
        ready_after = np.maximum.reduceat(anchors, cl.bucket_starts)
        bucket_idx = np.minimum(ready_after, flat.shape[0] - 1)
        # idx >= -1 always, so idx + 1 indexes prefix[0] for "forward end".
        row = prefix[bucket_idx + 1]
    else:
        row = np.zeros(0, dtype=np.float64)
    return row, fwd_total + bwd_total


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
