"""The discrete-event execution engine.

:func:`run_engine` plays a :class:`~repro.core.dfg.GlobalDFG` through an
explicit event queue instead of the closed-form Eq. (6) prefix-sum
recurrence.  Each rank owns a CUDA stream (forward → backward → optimizer)
and a COMM stream; synchronous collectives serialize on one global COMM
channel whose intervals mirror onto every rank's COMM stream.  Events —
per-rank bucket readiness, per-rank backward completion, per-bucket
collective completion, per-rank optimizer completion — are processed in
time order off a heap with deterministic sequence tie-breaking; a task
launches when its dependency count reaches zero and its start time is the
running max of its dependencies' completion times.

The :class:`~repro.engine.policy.SchedulePolicy` supplies the per-rank
stream anchors (bucket readiness, backward completion); a
:class:`~repro.engine.perturbation.Perturbation` rescales the inputs before
any event is scheduled.  Under the default
:class:`~repro.engine.policy.DDPOverlapPolicy` with no perturbation the
engine is **bit-identical** to
:func:`~repro.core.replayer.simulate_global_dfg`, comm windows included
(so the two render the same timeline): it reads the same stream
anchors (:meth:`LocalDFG.bucket_ready_times`, published stream totals), the
same single-call bucket pricing, and performs the same float operations
(``max`` is exact; every addition matches the analytic recurrence) — so
parity is an equality, not an approximation, and serves as the regression
oracle for every alternative policy.

:func:`execute_global_dfg` is the dispatch front door: the analytic fast
path for the default policy without perturbation (the allocator hot loop),
the event engine for everything else.  Neither emits a timeline; the result
renders one on demand (:func:`~repro.core.replayer.timeline_events`).

Imports from :mod:`repro.core.replayer` are function-scoped: the replayer
imports this package to route simulations, and module-level imports in both
directions would deadlock partially initialized modules.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.engine.perturbation import Perturbation
from repro.engine.policy import (
    SchedulePolicy,
    eq6_fast_path,
    resolve_schedule_policy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dfg import GlobalDFG
    from repro.core.replayer import SimulationResult
    from repro.hardware.cluster import Cluster

# Event kinds, in deterministic tie-break order at equal timestamps: a
# completion at time t must be visible to anything launching at time t.
_READY = 0        # (rank, bucket): the rank could launch this bucket
_COMPUTE_DONE = 1  # (rank,): the rank's backward pass retired
_COMM_DONE = 2    # (bucket,): the collective completed on the COMM channel
_OPT_DONE = 3     # (rank,): the rank's optimizer step retired


def execute_global_dfg(
    gdfg: "GlobalDFG",
    cluster: "Cluster",
    memory=None,
    collective_model=None,
    schedule_policy=None,
    perturbation: Perturbation | None = None,
    bucket_bits: tuple[int, ...] | None = None,
) -> "SimulationResult":
    """Simulate a global DFG, dispatching between the analytic Eq. (6) fast
    path and the discrete-event engine.

    The analytic recurrence serves exactly the calls
    :func:`~repro.engine.policy.eq6_fast_path` admits: default DDP-overlap
    schedule, no perturbation (the allocator hot loop).  Alternative
    schedule policies and perturbations run through :func:`run_engine`.
    ``bucket_bits`` (per-bucket compressed gradient widths) is forwarded
    to the shared bucket pricing on both branches; ``None`` keeps the
    uncompressed pricing bit-identical.
    """
    policy = resolve_schedule_policy(schedule_policy)
    if perturbation is not None and perturbation.is_noop:
        perturbation = None
    if eq6_fast_path(policy, perturbation):
        from repro.core.replayer import simulate_global_dfg

        return simulate_global_dfg(
            gdfg, cluster, memory=memory, collective_model=collective_model,
            bucket_bits=bucket_bits,
        )
    return run_engine(
        gdfg,
        cluster,
        memory=memory,
        collective_model=collective_model,
        schedule_policy=policy,
        perturbation=perturbation,
        bucket_bits=bucket_bits,
    )


def run_engine(
    gdfg: "GlobalDFG",
    cluster: "Cluster",
    memory=None,
    collective_model=None,
    schedule_policy: SchedulePolicy | str | None = None,
    perturbation: Perturbation | None = None,
    bucket_bits: tuple[int, ...] | None = None,
) -> "SimulationResult":
    """Event-driven simulation of one training iteration."""
    from repro.core.replayer import (
        SimulationResult,
        bucket_comm_durations,
        played_by_rank,
    )
    from repro.parallel.comm_model import resolve_collective_model

    comm_model = resolve_collective_model(collective_model)
    policy = resolve_schedule_policy(schedule_policy)

    locals_ = gdfg.locals
    if perturbation is not None:
        locals_ = [perturbation.perturb_local(ldfg) for ldfg in locals_]
    ranks = [ldfg.rank for ldfg in locals_]
    n_buckets = gdfg.n_buckets

    # ---- policy-provided stream anchors (per-rank CUDA streams) -------
    ready = {ldfg.rank: policy.bucket_ready_times(ldfg) for ldfg in locals_}
    compute_end = {
        ldfg.rank: policy.compute_end(ldfg) for ldfg in locals_
    }
    opt_durs = {
        ldfg.rank: ldfg.optimizer.duration if ldfg.optimizer else 0.0
        for ldfg in locals_
    }

    # ---- bucket pricing: one call per distinct size, shared with the
    # analytic path; perturbation drift scales per bucket ----------------
    durations = bucket_comm_durations(locals_, cluster, comm_model, bucket_bits)
    if perturbation is not None:
        durations = [
            dur * perturbation.comm_scale(n) for n, dur in enumerate(durations)
        ]

    # ---- event queue ---------------------------------------------------
    heap: list[tuple[float, int, int, tuple]] = []
    seq = 0

    def push(time: float, kind: int, payload: tuple) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, kind, seq, payload))
        seq += 1

    # COMM channel state: collectives serialize; bucket n waits on every
    # rank's readiness plus bucket n-1's completion.
    comm_pending = [len(ranks) + (1 if n > 0 else 0) for n in range(n_buckets)]
    comm_start = [0.0] * n_buckets
    comm_end = [0.0] * n_buckets
    # Optimizer per rank: waits on the local backward and the final
    # collective (when there is one).
    opt_pending = {r: 1 + (1 if n_buckets else 0) for r in ranks}
    opt_start = {r: 0.0 for r in ranks}
    rank_end = {r: 0.0 for r in ranks}

    for ldfg in locals_:
        r = ldfg.rank
        for n in range(n_buckets):
            push(ready[r][n], _READY, (r, n))
        push(compute_end[r], _COMPUTE_DONE, (r,))

    def arm_comm(n: int, t: float) -> None:
        comm_start[n] = max(comm_start[n], t)
        comm_pending[n] -= 1
        if comm_pending[n] == 0:
            push(comm_start[n] + durations[n], _COMM_DONE, (n,))

    def arm_opt(r: int, t: float) -> None:
        opt_start[r] = max(opt_start[r], t)
        opt_pending[r] -= 1
        if opt_pending[r] == 0:
            end = opt_start[r] + opt_durs[r]
            rank_end[r] = end
            push(end, _OPT_DONE, (r,))

    while heap:
        t, kind, _, payload = heapq.heappop(heap)
        if kind == _READY:
            _, n = payload
            arm_comm(n, t)
        elif kind == _COMPUTE_DONE:
            (r,) = payload
            arm_opt(r, t)
        elif kind == _COMM_DONE:
            (n,) = payload
            comm_end[n] = t
            if n + 1 < n_buckets:
                arm_comm(n + 1, t)
            else:
                for r in ranks:
                    arm_opt(r, t)
        # _OPT_DONE: terminal; rank_end was recorded when it was scheduled.

    assert all(p == 0 for p in comm_pending), "collectives left unscheduled"
    assert all(p == 0 for p in opt_pending.values()), "optimizers never ran"

    # ---- result assembly (field-for-field the analytic layout) ---------
    comm_end_final = comm_end[-1] if n_buckets else 0.0
    comm_wait = {
        r: max(0.0, comm_end_final - compute_end[r]) for r in ranks
    }
    per_device_compute = {ldfg.rank: ldfg.compute_time for ldfg in locals_}
    iteration_time = max(rank_end.values()) if rank_end else 0.0

    return SimulationResult(
        iteration_time=iteration_time,
        per_device_compute=per_device_compute,
        comm_wait_time=comm_wait,
        memory=memory or {},
        comm_windows=list(zip(comm_start, comm_end)),
        played=played_by_rank(locals_),
    )
