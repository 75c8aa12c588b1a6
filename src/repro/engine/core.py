"""The Eq. (6) synchronous-collective recurrence.

:func:`execute_global_dfg` plays a :class:`~repro.core.dfg.GlobalDFG`
through the paper's Eq. (6): bucket ``n``'s collective starts once every
rank has it ready *and* bucket ``n-1``'s collective has ended, and lasts as
long as its priced duration; each rank's optimizer runs after both its own
backward pass and the final collective.

Everything that varies between evaluations enters as an input to that one
recurrence:

* the global DFG's ``(locals, slots)``: the distinct execution lines, and
  which rank runs which — the Replayer passes one local per rank group,
  ground truth and Dpro one per rank;
* the :class:`~repro.engine.policy.SchedulePolicy` supplies each local's
  two anchors — when each bucket is ready, and when the backward pass ends;
* a :class:`~repro.engine.perturbation.Perturbation` scales each rank's
  CUDA-stream durations and each bucket's priced collective;
* the collective model and ``bucket_bits`` price the buckets, once, through
  :func:`~repro.core.replayer.bucket_comm_durations`.

The recurrence emits no timeline; the result renders one on demand
(:func:`~repro.core.replayer.timeline_events`).

Imports from :mod:`repro.core.replayer` are function-scoped: the replayer
calls this function, and module-level imports in both directions would
deadlock partially initialized modules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.perturbation import Perturbation
from repro.engine.policy import resolve_schedule_policy
from repro.parallel.comm_model import resolve_collective_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dfg import GlobalDFG
    from repro.core.replayer import SimulationResult
    from repro.hardware.cluster import Cluster


def execute_global_dfg(
    gdfg: "GlobalDFG",
    cluster: "Cluster",
    memory=None,
    collective_model=None,
    schedule_policy=None,
    perturbation: Perturbation | None = None,
    bucket_bits: tuple[int, ...] | None = None,
) -> "SimulationResult":
    """Play one training iteration of ``gdfg`` through Eq. (6).

    The anchors are computed once per local; per-rank compute and wait
    times are keyed by each slot's rank, so ranks that share a local share
    its anchors.  ``schedule_policy`` (name, instance, or ``None`` for DDP
    overlap) decides each local's bucket readiness and backward end;
    ``perturbation`` rescales the inputs first, expanding the slots into
    one scaled copy per rank (a no-op one is dropped, so it cannot move a
    bit); ``bucket_bits`` (per-bucket compressed gradient widths) is
    forwarded to the bucket pricing, where ``None`` keeps the uncompressed
    pricing bit-identical.
    """
    from repro.core.replayer import SimulationResult, bucket_comm_durations

    policy = resolve_schedule_policy(schedule_policy)
    if perturbation is not None and perturbation.is_noop:
        perturbation = None
    locals_, slots = gdfg.locals, gdfg.slots
    if perturbation is not None:
        locals_ = [perturbation.perturb_local(locals_[i], rank) for rank, i in slots]
        slots = tuple((rank, n) for n, (rank, _) in enumerate(slots))

    durations = bucket_comm_durations(
        locals_, cluster, resolve_collective_model(collective_model),
        bucket_bits,
    )
    if perturbation is not None:
        durations = [
            dur * perturbation.comm_scale(n) for n, dur in enumerate(durations)
        ]
    ready = [policy.bucket_ready_times(ldfg) for ldfg in locals_]
    compute_end = [policy.compute_end(ldfg) for ldfg in locals_]

    comm_windows: list[tuple[float, float]] = []
    comm_end = 0.0
    for n, dur in enumerate(durations):
        comm_start = max(max([times[n] for times in ready]), comm_end)
        comm_end = comm_start + dur
        comm_windows.append((comm_start, comm_end))

    iteration_time = 0.0
    per_device_compute: dict[int, float] = {}
    comm_wait: dict[int, float] = {}
    for rank, i in slots:
        ldfg, end = locals_[i], compute_end[i]
        opt = ldfg.optimizer.duration if ldfg.optimizer else 0.0
        comm_wait[rank] = max(0.0, comm_end - end)
        per_device_compute[rank] = ldfg.compute_time
        iteration_time = max(iteration_time, max(end, comm_end) + opt)

    return SimulationResult(
        iteration_time=iteration_time,
        per_device_compute=per_device_compute,
        comm_wait_time=comm_wait,
        memory=memory or {},
        comm_windows=comm_windows,
        played=(locals_, slots),
    )
