"""Dynamic Batch Sizing (DBS) [4].

Keeps the global batch constant while giving fast/large devices bigger
local batches and slow/small devices smaller ones, so all workers finish
their step at roughly the same time.  :func:`dbs_batch_sizes` is the
proportional-to-speed allocation.
"""

from __future__ import annotations

import numpy as np

#: Fewest samples any worker is given.
MIN_BATCH = 1


def dbs_batch_sizes(global_batch: int, per_sample_times: list[float]) -> list[int]:
    """Split ``global_batch`` across workers proportional to speed.

    Parameters
    ----------
    global_batch:
        Total samples per synchronous step (kept identical to the uniform
        configuration — the method's defining constraint).  The linear LR
        scaling rule existing DBS work prescribes (lr scales with the batch
        size [6]) applies to this *global* batch, so it leaves the LR
        unchanged: what degrades from-scratch BN models under DBS is the
        changed per-worker batch statistics, which the executable models
        reproduce and no LR adaptation can compensate.
    per_sample_times:
        Seconds per sample per worker at the precision DBS runs (FP32).
    """
    times = np.asarray(per_sample_times, dtype=np.float64)
    if np.any(times <= 0) or not np.all(np.isfinite(times)):
        raise ValueError("per-sample times must be positive and finite")
    speeds = 1.0 / times
    k = len(speeds)
    raw = speeds / speeds.sum() * global_batch
    batches = np.maximum(np.floor(raw).astype(int), MIN_BATCH)

    # Fix rounding drift: add/remove from the fastest workers.
    diff = global_batch - int(batches.sum())
    order = np.argsort(-speeds)
    i = 0
    while diff != 0:
        idx = order[i % k]
        step = 1 if diff > 0 else -1
        if batches[idx] + step >= MIN_BATCH:
            batches[idx] += step
            diff -= step
        i += 1
    return [int(b) for b in batches]

