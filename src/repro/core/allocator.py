"""The precision Allocator (Sec. V).

Solves problem (1): minimize total operator sensitivity on inference GPUs
subject to per-device memory (``M_i <= M_i^max``) and global throughput
(``E >= T_min``) constraints.

Strategy (per the paper):

1. **Initialization — fastest feasible plan.**  Starting from FP32 and
   demoting is ill-directed because casting costs make "lower" not always
   "faster"; instead the allocator starts from the *fastest* setting.  The
   search space is collapsed by the repeating-isomorphic-subgraph structure:
   each isomorphism class is brute-forced once (all blocks of a class share
   the decision) against the whole graph's local compute time and memory,
   largest-FLOPs class first.  This is a coordinate descent whose
   per-class step is exhaustive — a strictly stronger feasibility check
   than pre-splitting memory budgets, with identical intent (a documented
   deviation, see CONTRIBUTING.md "Substitutions").  The descent starts
   from the ``T_min`` plan, which fits by construction.  A trial writes
   only its class's ops and re-checks only the planned type's memory, so
   it costs what it changes.
2. **Recovery — max-heap precision ascent.**  A heap per inference device
   type holds ``[Omega(b) - Omega(ADD(b)), op]``: the sensitivity *decrement*
   available by promoting each op one precision level.  Pop the largest,
   promote tentatively, re-simulate with the Replayer; keep the change iff
   the promoted type still fits its memory (no other group moved) and
   throughput stays >= ``T_min``; push the op back with its next-higher
   precision while one exists.

``T_min`` is the throughput of the uniform lowest-feasible-precision plan
(problem (1)'s definition).  UP, ``T_min``, the wide-class sweep and
recovery all walk one precision ladder: an op's candidates sorted
low-to-high by bit width, stepped by :func:`at_or_above`.

The ``T_min`` ladder and step 1's brute force read one device type's DAG,
profiled costs and memory, never the indicator.  Their result, the type's
*allocation start*, is therefore asked for through a lookup
(``start_for``): the session serves one per device type from its store,
so what-ifs on the same hardware (other strategies, indicators,
collectives, a re-plan) search it once and run only the simulations and
recovery.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import math
from typing import Callable

from repro.common.dtypes import Precision
from repro.common.errors import InfeasiblePlanError
from repro.core.indicator import IndicatorProtocol
from repro.core.plan import PrecisionPlan
from repro.core.replayer import RankGroup, Replayer, SimulationResult
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OperatorSpec
from repro.graph.subgraph import group_blocks, isomorphism_classes
from repro.hardware.device import DeviceSpec

#: Max decision ops per isomorphism class to enumerate exhaustively (3^n
#: growth); wider classes sweep uniform targets instead.
MAX_BRUTEFORCE_OPS = 6


def op_candidates(spec: OperatorSpec, device: DeviceSpec) -> list[Precision]:
    """Precisions both the op's kernels and the device support, sorted
    low-to-high by bit width: one op's precision ladder."""
    return sorted(
        (p for p in spec.supported_precisions() if device.supports(p)),
        key=lambda p: p.bits,
    )


def at_or_above(cands: list[Precision], target: Precision) -> Precision:
    """The ladder's rung rule: the lowest of ``cands`` (sorted low-to-high)
    at or above ``target``, or the widest when none reaches it (softmax
    stays FP32 under an INT8 target)."""
    return next((p for p in cands if p.bits >= target.bits), cands[-1])


def decision_ops(
    dag: PrecisionDAG, device: DeviceSpec, ops: list[str]
) -> list[str]:
    """The ops of ``ops`` with a precision to decide: adjustable ops with
    more than one candidate (FP32-pinned softmax has none)."""
    return [
        op
        for op in ops
        if dag.spec(op).is_adjustable
        and len(op_candidates(dag.spec(op), device)) > 1
    ]


def uniform_plan(
    dag: PrecisionDAG, device: DeviceSpec, target: Precision
) -> dict[str, Precision]:
    """Every adjustable op on its rung for ``target``: one step of the
    uniform ladder that UP and ``T_min`` walk."""
    return {
        op: at_or_above(op_candidates(dag.spec(op), device), target)
        for op in dag.adjustable_ops()
    }


@dataclasses.dataclass(frozen=True)
class AllocatorConfig:
    """Tunables for the allocation search."""

    #: Relative slack on the throughput constraint: keep a recovery step iff
    #: ``E_new >= (1 - slack) * T_min``.
    throughput_slack: float = 0.005
    #: Hard cap on recovery iterations (defensive; heaps empty long before).
    max_recovery_steps: int = 10_000
    #: §VIII "QSync Under Automated Mixed Precision": when True, training
    #: GPUs also start from their fastest precision (AMP's FP16) and join
    #: the recovery heaps — the "throughput-maximum case" where the recovery
    #: target shifts from the inference GPUs to the training GPUs.
    amp_mode: bool = False


@dataclasses.dataclass
class AllocationReport:
    """Diagnostics of one allocation run."""

    t_min: float
    initial_throughput: float
    final_throughput: float
    recovery_attempts: int
    recovery_accepted: int
    initial_counts: dict[str, int]
    final_counts: dict[str, int]
    #: From-scratch LocalDFG constructions performed during the recovery
    #: loop (the incremental engine keeps this at zero) and the delta
    #: updates that replaced them.
    recovery_full_rebuilds: int = 0
    recovery_incremental_updates: int = 0
    simulate_calls: int = 0

    def summary(self) -> str:
        return (
            f"T_min={self.t_min:.3f} it/s, init E={self.initial_throughput:.3f}, "
            f"final E={self.final_throughput:.3f}; recovered "
            f"{self.recovery_accepted}/{self.recovery_attempts} promotions; "
            f"precisions {self.initial_counts} -> {self.final_counts}"
        )


class Allocator:
    """Quantization-minimized precision allocation.

    Parameters
    ----------
    replayer:
        Configured with per-rank DAGs/catalogs (aliased per device type by
        the session); training-GPU DAGs are left at FP32 throughout.
    indicators:
        Device-type name -> sensitivity indicator (QSync's variance
        indicator, or a baseline implementing the same protocol).
    config:
        Search tunables.
    start_for:
        Optional lookup of allocation starts: ``start_for(type name,
        search)`` returns the type's ``(T_min plan, initial plan)``, calling
        ``search()`` (the ladder, then the brute force, which read only the
        type's DAG, costs and memory) when it holds none.  The session
        passes its store's (:meth:`repro.session.session.PlanContext.
        start_for`); the returned plans are never mutated.  ``None``
        searches on every call.
    """

    def __init__(
        self,
        replayer: Replayer,
        indicators: dict[str, IndicatorProtocol],
        config: AllocatorConfig | None = None,
        start_for: Callable[[str, Callable[[], tuple]], tuple] | None = None,
    ) -> None:
        self.replayer = replayer
        self.indicators = indicators
        self.config = config or AllocatorConfig()
        self.start_for = start_for or (lambda name, search: search())
        # (device type, op) -> candidate precisions sorted low-to-high by
        # bit width.  Device support tables and kernel sets are static, so
        # this is computed once instead of per recovery trial.
        self._cand_cache: dict[tuple[str, str], list[Precision]] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _planned_groups(self) -> dict[str, list[RankGroup]]:
        """Device type -> its rank groups (one, unless the replayer was
        handed distinct same-type DAGs), for the types the allocator may
        quantize.

        Default: inference GPUs only (training GPUs pinned FP32 per problem
        (1)).  Under :attr:`AllocatorConfig.amp_mode` every device type
        participates — the paper's §VIII throughput-maximum scenario.
        """
        types: dict[str, list[RankGroup]] = {}
        for group in self.replayer.groups:
            if self.config.amp_mode or not group.device.is_training_gpu:
                types.setdefault(group.device.name, []).append(group)
        return types

    def _candidates_for(self, dag: PrecisionDAG, op: str, device) -> list[Precision]:
        """:func:`op_candidates`, cached per (device type, op): read-only."""
        key = (device.name, op)
        cands = self._cand_cache.get(key)
        if cands is None:
            cands = self._cand_cache[key] = op_candidates(dag.spec(op), device)
        return cands

    def _set_op(self, groups: list[RankGroup], op: str, prec: Precision) -> None:
        """Single-op delta applied to the type's DAGs — the write primitive
        of brute-force trials and recovery steps (dirties one op instead of
        re-writing the whole plan)."""
        for group in groups:
            group.dag.set_precision(op, prec)

    def _memory_ok(self, groups: list[RankGroup]) -> bool:
        """Whether each of ``groups`` fits its device.  A group's footprint
        depends on its own DAG only, so a step that changes one type's
        groups re-checks those alone."""
        return all(
            self.replayer.memory_estimate(group.ranks[0]).total
            <= group.device.available_memory
            for group in groups
        )

    # ------------------------------------------------------------------
    # step 1: uniform lowest-feasible plan -> T_min
    # ------------------------------------------------------------------
    def _uniform_lowest_plan(
        self, groups: list[RankGroup]
    ) -> dict[str, Precision]:
        """Uniform *lowest* supported precision meeting memory — the T_min
        reference of problem (1): "converting all operators to int8 or fp16
        depending on the lowest precision that the inference GPUs support".

        Walks the ladder from the lowest format upward, applying each rung
        to ``groups``, and returns the first memory-feasible uniform plan
        (the groups hold it).  The lowest format is not always the smallest:
        INT8 kernels emit FP32, so the ops after them can make uniform FP16
        fit where uniform INT8 does not.
        Only ``groups`` are checked: a type still at its template
        precisions must not fail another type's ladder.
        """
        dag, device = groups[0].dag, groups[0].device
        ladder = device.supported_precisions()
        for target in ladder:
            plan = uniform_plan(dag, device, target)
            for group in groups:
                group.dag.apply_plan(plan)
            if self._memory_ok(groups):
                return plan
        raise InfeasiblePlanError(
            f"even uniform {ladder[0].value} exceeds memory on {device.name}"
        )

    # ------------------------------------------------------------------
    # step 2: fastest feasible initialization (subgraph brute force)
    # ------------------------------------------------------------------
    def _initial_plan(
        self, groups: list[RankGroup], plan: dict[str, Precision]
    ) -> dict[str, Precision]:
        """Coordinate descent over the type's isomorphism classes, starting
        from the T_min ``plan`` the groups already hold; returns the fastest
        memory-feasible plan found and leaves the groups on it."""
        dag, device = groups[0].dag, groups[0].device
        plan = dict(plan)
        blocks = group_blocks(dag)
        rank = groups[0].ranks[0]

        # Largest compute first: decide the expensive blocks before the
        # cheap ones constrain them.
        def class_flops(labels: list[str]) -> float:
            return sum(
                dag.spec(op).flops for lbl in labels for op in blocks[lbl]
            )

        def write(rows: list[list[str]], assignment) -> None:
            for row in rows:
                for op, prec in zip(row, assignment):
                    self._set_op(groups, op, prec)

        def trial_time(rows: list[list[str]], assignment) -> float:
            # A trial writes the class's ops only: every other op already
            # holds its ``plan`` precision.  Local execution latency (no
            # comm): the group's cost mapper sums its retained per-op
            # durations, bit-identical to the assembled DFG's compute_time.
            write(rows, assignment)
            if not self._memory_ok(groups):
                return math.inf
            return self.replayer.compute_time(rank)

        classes = isomorphism_classes(dag).values()
        for labels in sorted(classes, key=class_flops, reverse=True):
            # One row of decision ops per block, positionally aligned:
            # isomorphic blocks share their candidate lists row for row.
            rows = [decision_ops(dag, device, blocks[lbl]) for lbl in labels]
            per_op_cands = [self._candidates_for(dag, op, device) for op in rows[0]]
            if not per_op_cands:
                continue
            if len(per_op_cands) <= MAX_BRUTEFORCE_OPS:
                assignments = itertools.product(*per_op_cands)
            else:
                # Too large to enumerate: sweep uniform *targets*, each op
                # on its rung for the target.
                targets = sorted(
                    {p for cands in per_op_cands for p in cands},
                    key=lambda p: p.bits,
                )
                assignments = [
                    tuple(at_or_above(cands, t) for cands in per_op_cands)
                    for t in targets
                ]
            # The class's T_min assignment is one of the trials and fits,
            # so the winner (the first of the fastest) always fits.
            winner = min(assignments, key=lambda a: trial_time(rows, a))
            write(rows, winner)
            for row in rows:
                plan.update(zip(row, winner))
        return plan

    def _search(
        self, groups: list[RankGroup]
    ) -> tuple[dict[str, Precision], dict[str, Precision]]:
        """One type's allocation start: its ``T_min`` plan and the brute
        force's initial plan (the groups are left on the latter)."""
        t_min_plan = self._uniform_lowest_plan(groups)
        return t_min_plan, self._initial_plan(groups, t_min_plan)

    # ------------------------------------------------------------------
    # step 3: precision recovery
    # ------------------------------------------------------------------
    def allocate(self) -> tuple[PrecisionPlan, AllocationReport]:
        """Run the full allocation; returns the plan and diagnostics."""
        type_groups = self._planned_groups()
        if not type_groups:
            # Pure training cluster: everything FP32, nothing to do.
            plan = PrecisionPlan(assignments={})
            return plan, passive_allocation_report(plan, self.replayer.simulate())

        # Groups no ladder plans (FP32-pinned training ranks) keep their
        # precisions throughout, so their fit is checked once, up front.
        # Every later step writes one type's groups and re-checks those
        # alone.
        for group in self.replayer.groups:
            if group.device.name in type_groups:
                continue
            if not self._memory_ok([group]):
                raise InfeasiblePlanError(
                    f"FP32-pinned ranks exceed {group.device.name} memory"
                )

        # Each type's start: its T_min plan and fastest-feasible initial
        # plan, searched (or looked up) per type.  T_min is the throughput
        # of every type on its uniform lowest-feasible plan at once.
        starts = {
            name: self.start_for(name, functools.partial(self._search, groups))
            for name, groups in type_groups.items()
        }
        for name, groups in type_groups.items():
            _install(groups, starts[name][0])
        t_min = self.replayer.simulate().throughput
        plans = {
            name: _install(groups, starts[name][1])
            for name, groups in type_groups.items()
        }
        initial_sim = self.replayer.simulate()
        initial_counts = precision_counts(plans)

        # Recovery heaps: one per device type (all same-type workers share
        # the plan — identical devices, identical local batches).
        type_rep = {name: groups[0] for name, groups in type_groups.items()}
        threshold = (1.0 - self.config.throughput_slack) * t_min
        attempts = 0
        accepted = 0
        heap: list[tuple[float, int, str, str]] = []
        tiebreak = itertools.count()
        for name, rep in type_rep.items():
            indicator = self.indicators[name]
            for op, prec in plans[name].items():
                entry = self._heap_entry(
                    rep.dag, rep.device, indicator, op, prec, tiebreak
                )
                if entry is not None:
                    heap.append((*entry[:2], name, entry[2]))
        heapq.heapify(heap)

        rebuilds_before = self.replayer.full_rebuilds()
        deltas_before = self.replayer.incremental_updates()
        sims_before = self.replayer.stats.simulate_calls

        while heap and attempts < self.config.max_recovery_steps:
            _, _, name, op = heapq.heappop(heap)
            rep = type_rep[name]
            current = plans[name][op]
            target = self._next_supported(rep.dag, rep.device, op, current)
            if target is None:
                continue
            groups = type_groups[name]
            attempts += 1
            # One-op delta instead of re-applying the whole plan: the DAGs'
            # dirty logs then carry exactly this op into the replay engine.
            # Only this type's groups moved, so only they need re-checking.
            self._set_op(groups, op, target)
            sim = self.replayer.simulate()
            if not (self._memory_ok(groups) and sim.throughput >= threshold):
                self._set_op(groups, op, current)
                continue
            plans[name][op] = target
            accepted += 1
            fresh = self._heap_entry(
                rep.dag, rep.device, self.indicators[name], op, target, tiebreak
            )
            if fresh is not None:
                heapq.heappush(heap, (*fresh[:2], name, fresh[2]))

        final_sim = self.replayer.simulate()
        report = AllocationReport(
            t_min=t_min,
            initial_throughput=initial_sim.throughput,
            final_throughput=final_sim.throughput,
            recovery_attempts=attempts,
            recovery_accepted=accepted,
            initial_counts=initial_counts,
            final_counts=precision_counts(plans),
            recovery_full_rebuilds=self.replayer.full_rebuilds() - rebuilds_before,
            recovery_incremental_updates=(
                self.replayer.incremental_updates() - deltas_before
            ),
            simulate_calls=self.replayer.stats.simulate_calls - sims_before,
        )
        return PrecisionPlan(assignments=plans), report

    # ------------------------------------------------------------------
    def _next_supported(
        self, dag: PrecisionDAG, device, op: str, current: Precision
    ) -> Precision | None:
        """``ADD(b)``: the op's first candidate above ``current``."""
        return next(
            (
                p
                for p in self._candidates_for(dag, op, device)
                if p.bits > current.bits
            ),
            None,
        )

    def _heap_entry(
        self, dag: PrecisionDAG, device, indicator: IndicatorProtocol,
        op: str, prec: Precision, tiebreak,
    ) -> tuple[float, int, str] | None:
        """``[Omega(b) - Omega(ADD(b)), op]`` as a min-heap key (negated)."""
        target = self._next_supported(dag, device, op, prec)
        if target is None:
            return None
        decrement = indicator.omega(op, prec) - indicator.omega(op, target)
        return (-decrement, next(tiebreak), op)


def _install(
    groups: list[RankGroup], plan: dict[str, Precision]
) -> dict[str, Precision]:
    """Apply a start's ``plan`` to every DAG of ``groups``; returns a copy
    the caller may mutate (starts are shared, recovery mutates its plans)."""
    for group in groups:
        group.dag.apply_plan(plan)
    return dict(plan)


def precision_counts(plans: dict[str, dict[str, Precision]]) -> dict[str, int]:
    """Precision-value histogram over per-device-type plans (the
    ``initial_counts``/``final_counts`` shape of :class:`AllocationReport`,
    shared with the session's passive strategies)."""
    out: dict[str, int] = {}
    for ops in plans.values():
        for prec in ops.values():
            out[prec.value] = out.get(prec.value, 0) + 1
    return out


def passive_allocation_report(
    plan: PrecisionPlan, simulation: SimulationResult
) -> AllocationReport:
    """An :class:`AllocationReport` for strategies that run no recovery
    loop (uniform, dpro, a pure-training cluster): every throughput field
    is the final simulation's and the precision counts simply describe the
    plan."""
    counts = precision_counts(plan.assignments)
    return AllocationReport(
        t_min=simulation.throughput,
        initial_throughput=simulation.throughput,
        final_throughput=simulation.throughput,
        recovery_attempts=0,
        recovery_accepted=0,
        initial_counts=dict(counts),
        final_counts=dict(counts),
    )
