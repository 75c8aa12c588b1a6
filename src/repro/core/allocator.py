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
   than pre-splitting memory budgets, with identical intent (documented
   deviation, DESIGN.md §4).  A trial writes only its class's ops and
   re-checks only the planned type's memory, so it costs what it changes.
2. **Recovery — max-heap precision ascent.**  A heap per inference device
   type holds ``[Omega(b) - Omega(ADD(b)), op]``: the sensitivity *decrement*
   available by promoting each op one precision level.  Pop the largest,
   promote tentatively, re-simulate with the Replayer; keep the change iff
   the promoted type still fits its memory (no other group moved) and
   throughput stays >= ``T_min``; push the op back with its next-higher
   precision while one exists.

``T_min`` is the throughput of the uniform lowest-feasible-precision plan
(problem (1)'s definition).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools

from repro.common.dtypes import Precision, higher_precision
from repro.common.errors import InfeasiblePlanError
from repro.core.indicator import IndicatorProtocol
from repro.core.plan import PrecisionPlan
from repro.core.replayer import RankGroup, Replayer
from repro.graph.dag import PrecisionDAG
from repro.graph.subgraph import group_blocks, isomorphism_classes


@dataclasses.dataclass(frozen=True)
class AllocatorConfig:
    """Tunables for the allocation search."""

    #: Max adjustable ops per block to enumerate exhaustively (3^n growth);
    #: larger blocks fall back to uniform candidates.
    max_bruteforce_ops: int = 6
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
    """

    def __init__(
        self,
        replayer: Replayer,
        indicators: dict[str, IndicatorProtocol],
        config: AllocatorConfig | None = None,
    ) -> None:
        self.replayer = replayer
        self.indicators = indicators
        self.config = config or AllocatorConfig()
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
        """Precisions both the op's kernels and the device support, sorted
        low-to-high by bit width (cached, read-only)."""
        key = (device.name, op)
        cands = self._cand_cache.get(key)
        if cands is None:
            cands = sorted(
                (
                    p
                    for p in dag.spec(op).supported_precisions()
                    if device.supports(p)
                ),
                key=lambda p: p.bits,
            )
            self._cand_cache[key] = cands
        return cands

    def _apply_to_type(
        self, groups: list[RankGroup], plan: dict[str, Precision]
    ) -> None:
        for group in groups:
            group.dag.apply_plan(plan)

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

        Walks the ladder from the lowest format upward and returns the first
        memory-feasible uniform plan (the lowest format is also the smallest,
        so later rungs only matter for devices with odd memory anatomies).
        Only ``groups`` are checked: a type still at its template
        precisions must not fail another type's ladder.
        """
        dag, device = groups[0].dag, groups[0].device
        ladder = sorted(device.supported_precisions(), key=lambda p: p.bits)
        for target in ladder:
            plan: dict[str, Precision] = {}
            for op in dag.adjustable_ops():
                cands = self._candidates_for(dag, op, device)
                usable = [p for p in cands if p.bits >= target.bits]
                # No candidate at-or-above the target: fall back to the
                # op's widest kernel explicitly (don't assume the candidate
                # list is bit-ordered).
                plan[op] = (
                    min(usable, key=lambda p: p.bits)
                    if usable
                    else max(cands, key=lambda p: p.bits)
                )
            self._apply_to_type(groups, plan)
            if self._memory_ok(groups):
                return plan
        raise InfeasiblePlanError(
            f"even uniform {ladder[0].value} exceeds memory on {device.name}"
        )

    # ------------------------------------------------------------------
    # step 2: fastest feasible initialization (subgraph brute force)
    # ------------------------------------------------------------------
    def _initial_plan(self, groups: list[RankGroup]) -> dict[str, Precision]:
        dag, device = groups[0].dag, groups[0].device
        # Start from uniform-lowest (always memory-feasible per T_min step).
        plan = {
            op: min(self._candidates_for(dag, op, device), key=lambda p: p.bits)
            for op in dag.adjustable_ops()
        }
        self._apply_to_type(groups, plan)
        # The one all-groups check: every trial below writes this type's
        # groups only, so the other groups' fit holds throughout.
        for group in self.replayer.groups:
            if not self._memory_ok([group]):
                raise InfeasiblePlanError(
                    f"lowest precisions exceed {group.device.name} memory"
                )

        blocks = group_blocks(dag)
        classes = isomorphism_classes(dag)
        # Largest compute first: decide the expensive blocks before the
        # cheap ones constrain them.
        def class_flops(labels: list[str]) -> float:
            return sum(
                dag.spec(op).flops for lbl in labels for op in blocks[lbl]
            )

        for labels in sorted(classes.values(), key=class_flops, reverse=True):
            # Single-candidate ops (e.g. FP32-pinned softmax) have no
            # decision to make — enumerate only genuinely adjustable ones.
            template_ops = [
                op
                for op in blocks[labels[0]]
                if dag.spec(op).is_adjustable
                and len(self._candidates_for(dag, op, device)) > 1
            ]
            if not template_ops:
                continue
            per_op_cands = [
                self._candidates_for(dag, op, device) for op in template_ops
            ]
            if len(template_ops) <= self.config.max_bruteforce_ops:
                assignments = itertools.product(*per_op_cands)
            else:
                # Too large to enumerate: sweep uniform *targets*, each op
                # taking its nearest supported precision at-or-above it.
                targets = sorted(
                    {p for cands in per_op_cands for p in cands},
                    key=lambda p: p.bits,
                )
                assignments = []
                for target in targets:
                    assignments.append(
                        tuple(
                            min(
                                [p for p in cands if p.bits >= target.bits]
                                or [max(cands, key=lambda p: p.bits)],
                                key=lambda p: p.bits,
                            )
                            for cands in per_op_cands
                        )
                    )

            # Positional mapping template block -> every block in the class
            # (isomorphism guarantees per-position candidate sets coincide),
            # flattened once as (op, position, candidates, pre-class
            # precision).  A position the op has no kernel for keeps the
            # pre-class precision.
            slots: list[tuple[str, int, list[Precision], Precision]] = []
            for lbl in labels:
                ops = [
                    op
                    for op in blocks[lbl]
                    if dag.spec(op).is_adjustable
                    and len(self._candidates_for(dag, op, device)) > 1
                ]
                for pos, op in enumerate(ops[: len(template_ops)]):
                    cands = self._candidates_for(dag, op, device)
                    slots.append((op, pos, cands, plan[op]))
            best: tuple[float, tuple[Precision, ...]] | None = None
            for assignment in assignments:
                # A trial writes the class's ops only: every other op
                # already holds its ``plan`` precision.
                for op, pos, cands, base in slots:
                    prec = assignment[pos]
                    self._set_op(groups, op, prec if prec in cands else base)
                if not self._memory_ok(groups):
                    continue
                # Local execution latency (no comm): the group's cost mapper
                # sums its retained per-op durations, bit-identical to the
                # assembled DFG's compute_time without assembling one.
                t = self.replayer.compute_time(groups[0].ranks[0])
                if best is None or t < best[0]:
                    best = (t, assignment)
            # Leave the DAGs on the winner, or back on the pre-class
            # precisions when no trial fit.
            for op, pos, cands, base in slots:
                prec = base if best is None else best[1][pos]
                plan[op] = prec if prec in cands else base
                self._set_op(groups, op, plan[op])
        return plan

    # ------------------------------------------------------------------
    # step 3: precision recovery
    # ------------------------------------------------------------------
    def allocate(self) -> tuple[PrecisionPlan, AllocationReport]:
        """Run the full allocation; returns the plan and diagnostics."""
        type_groups = self._planned_groups()
        if not type_groups:
            # Pure training cluster: everything FP32, nothing to do.
            sim = self.replayer.simulate()
            report = AllocationReport(
                t_min=sim.throughput,
                initial_throughput=sim.throughput,
                final_throughput=sim.throughput,
                recovery_attempts=0,
                recovery_accepted=0,
                initial_counts={},
                final_counts={},
            )
            return PrecisionPlan(assignments={}), report

        plans: dict[str, dict[str, Precision]] = {}

        # T_min: uniform lowest-feasible on every inference type at once.
        for name, groups in type_groups.items():
            plans[name] = self._uniform_lowest_plan(groups)
        t_min = self.replayer.simulate().throughput

        # Fastest-feasible initialization.
        for name, groups in type_groups.items():
            plans[name] = self._initial_plan(groups)
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
        cands = self._candidates_for(dag, op, device)
        prec = current
        while True:
            nxt = higher_precision(prec)
            if nxt is None:
                return None
            if nxt in cands:
                return nxt
            prec = nxt

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


def precision_counts(plans: dict[str, dict[str, Precision]]) -> dict[str, int]:
    """Precision-value histogram over per-device-type plans (the
    ``initial_counts``/``final_counts`` shape of :class:`AllocationReport`,
    shared with the session's passive strategies)."""
    out: dict[str, int] = {}
    for ops in plans.values():
        for prec in ops.values():
            out[prec.value] = out.get(prec.value, 0) + 1
    return out
