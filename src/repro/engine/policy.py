"""Pluggable schedule policies for the discrete-event engine.

A :class:`SchedulePolicy` decides *when a rank's work product becomes
available to the communication plane*: the time each gradient bucket is
ready for its collective and the time the rank's backward pass completes.
The engine's event queue then resolves the global ordering (collectives
serialize on the COMM channel; the optimizer waits on both the local
backward and the final collective).

Two built-ins:

* :class:`DDPOverlapPolicy` — the paper's Eq. (6) semantics and the
  **default**: compute never stalls on communication, bucket ``n`` launches
  as soon as the backward node producing its last gradient retires.  Under
  this policy (and no perturbation) the engine is **bit-identical** to the
  analytic :func:`~repro.core.replayer.simulate_global_dfg` recurrence —
  the readiness and compute-end anchors are the very same
  :meth:`LocalDFG.bucket_ready_times` / stream totals the analytic path
  reads, so parity is exact, not approximate.  That parity is the
  regression oracle for every other policy.
* :class:`BlockingSyncPolicy` — vanilla synchronous SGD without
  overlap: no bucket may launch before the *local* backward pass has fully
  completed (gradients ship only once all of them exist).  Iteration time
  is therefore ≥ the DDP-overlap time on every global DFG.

Policies are selectable by name through :func:`resolve_schedule_policy`
(the same vocabulary pattern as
:func:`repro.parallel.comm_model.resolve_collective_model`).

:func:`eq6_fast_path` is the one rule deciding whether an evaluation may
skip the event engine for the analytic recurrence (or the compiled kernel
that mirrors it bit-for-bit).  Timelines do not enter it: a result renders
its own from its comm windows, and the optimizer anchor it uses,
``max(fwd + bwd, last comm end)``, holds under both policies here.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dfg import LocalDFG
    from repro.engine.perturbation import Perturbation


class SchedulePolicy(abc.ABC):
    """When does one rank's work become visible to the COMM plane?"""

    #: Registry/display name ("ddp_overlap", "blocking_sync").
    name: str = "abstract"

    @abc.abstractmethod
    def bucket_ready_times(self, ldfg: "LocalDFG") -> Mapping[int, float]:
        """Bucket index -> time (from iteration start) the rank could launch
        that bucket's collective."""

    @abc.abstractmethod
    def compute_end(self, ldfg: "LocalDFG") -> float:
        """Time the rank's backward pass completes (optimizer not included)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DDPOverlapPolicy(SchedulePolicy):
    """Eq. (6): buckets launch at gradient readiness, overlapping backward.

    Reads exactly the anchors the analytic recurrence reads
    (:meth:`LocalDFG.bucket_ready_times`, ``forward_time + backward_time``),
    which is what makes engine-vs-analytic parity bit-exact.
    """

    name = "ddp_overlap"

    def bucket_ready_times(self, ldfg: "LocalDFG") -> Mapping[int, float]:
        return ldfg.bucket_ready_times()

    def compute_end(self, ldfg: "LocalDFG") -> float:
        return ldfg.forward_time + ldfg.backward_time


class BlockingSyncPolicy(SchedulePolicy):
    """No-overlap vanilla sync SGD: communication starts only after the
    whole local backward pass has retired; buckets then serialize as usual.
    """

    name = "blocking_sync"

    def bucket_ready_times(self, ldfg: "LocalDFG") -> Mapping[int, float]:
        # The readiness anchor must be the *prefix-sum* end of the backward
        # stream — the same float accumulation DDPOverlapPolicy's
        # bucket_ready_times() uses — not the published fwd+bwd totals.
        # The two associate additions differently, and a totals-based
        # anchor can land 1 ulp *below* an overlap readiness, letting
        # blocking "beat" overlap by rounding noise.  Prefix sums are
        # monotone, so every blocking anchor >= every overlap anchor and
        # the no-overlap schedule can never win (property-tested).
        end = ldfg.forward_time
        for node in ldfg.backward:
            end += node.duration
        return {b.index: end for b in ldfg.buckets}

    def compute_end(self, ldfg: "LocalDFG") -> float:
        return ldfg.forward_time + ldfg.backward_time


def eq6_fast_path(
    policy: SchedulePolicy, perturbation: "Perturbation | None" = None
) -> bool:
    """May the analytic Eq. (6) path serve this evaluation?

    True exactly for the default DDP-overlap schedule (the class itself,
    not a subclass) and a no-op perturbation — the calls on which the
    event engine is bit-identical to the closed form.  The single
    dispatch rule shared by
    :func:`~repro.engine.core.execute_global_dfg`,
    :meth:`~repro.core.replayer.Replayer.simulate` (the grouped
    recurrence) and :meth:`~repro.core.replayer.Replayer.compiled_global`
    (the kernel's batched what-ifs), so the closed form, the kernel and
    the engine can never disagree on which calls take the fast path.
    """
    return (
        perturbation is None or perturbation.is_noop
    ) and type(policy) is DDPOverlapPolicy


#: Name -> policy class, the selection vocabulary for requests/experiments.
SCHEDULE_POLICIES: dict[str, type[SchedulePolicy]] = {
    DDPOverlapPolicy.name: DDPOverlapPolicy,
    BlockingSyncPolicy.name: BlockingSyncPolicy,
}


def resolve_schedule_policy(
    policy: Union[SchedulePolicy, str, None],
) -> SchedulePolicy:
    """Normalize a policy spec: ``None`` -> the DDP-overlap default, a name
    -> its registered class, an instance -> itself."""
    if policy is None:
        return DDPOverlapPolicy()
    if isinstance(policy, SchedulePolicy):
        return policy
    if isinstance(policy, str):
        if policy not in SCHEDULE_POLICIES:
            raise KeyError(
                f"unknown schedule policy {policy!r}; available: "
                f"{sorted(SCHEDULE_POLICIES)}"
            )
        return SCHEDULE_POLICIES[policy]()
    raise TypeError(
        f"schedule policy must be None, a name, or a SchedulePolicy, "
        f"got {type(policy).__name__}"
    )
