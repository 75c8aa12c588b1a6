"""Pluggable schedule policies: the per-rank anchors of Eq. (6).

A :class:`SchedulePolicy` decides *when a rank's work product becomes
available to the communication plane*: the time each gradient bucket is
ready for its collective and the time the rank's backward pass completes.
:func:`~repro.engine.core.execute_global_dfg` reads both anchors and plays
the one Eq. (6) recurrence over them (collectives serialize; the optimizer
waits on both the local backward and the final collective).

Two built-ins:

* :class:`DDPOverlapPolicy` — the paper's Eq. (6) semantics and the
  **default**: compute never stalls on communication, bucket ``n`` launches
  as soon as the backward node producing its last gradient retires
  (:meth:`LocalDFG.bucket_ready_times`).
* :class:`BlockingSyncPolicy` — vanilla synchronous SGD without
  overlap: no bucket may launch before the *local* backward pass has fully
  completed (gradients ship only once all of them exist).  Iteration time
  is therefore ≥ the DDP-overlap time on every global DFG.

Both policies' anchors are functions of a LocalDFG's contents alone, which
is what lets the Replayer play either once per rank group.

Policies are selectable by name through :func:`resolve_schedule_policy`
(the same vocabulary pattern as
:func:`repro.parallel.comm_model.resolve_collective_model`).

:func:`eq6_fast_path` decides whether the compiled kernel, which hard-codes
the DDP-overlap anchors and takes no perturbation, may serve an
evaluation.  Timelines do not enter it: a result renders its own from its
comm windows, and the optimizer anchor it uses,
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

    Anchors: :meth:`LocalDFG.bucket_ready_times` and
    ``forward_time + backward_time`` — the same ones the compiled kernel
    bakes in, which is what keeps the kernel bit-identical.
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
    """May the compiled kernel serve this evaluation?

    True exactly for the default DDP-overlap schedule (the class itself,
    not a subclass) and a no-op perturbation — the calls on which the
    kernel's baked-in anchors and unscaled durations are bit-identical to
    :func:`~repro.engine.core.execute_global_dfg`.  Read only by
    :meth:`~repro.core.replayer.Replayer.compiled_global` (the kernel's
    batched what-ifs).
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
