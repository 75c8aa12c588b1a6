"""The Replayer: throughput estimation ``E(.)`` and memory ``M_i(.)``.

Per device it owns a Precision DAG + Cost Mapper; :meth:`simulate` plays the
global DFG forward under the synchronous-collective recurrence of Eq. (6):

.. math::

    comm^{start}_n = \\max(\\max_i comm^{start}_{i,n},\\; comm^{end}_{n-1})

    comm^{end}_n = comm^{start}_n + \\max_i comm^{dur}_{i,n}

i.e. bucket ``n`` starts when every device has produced its gradients *and*
the previous collective finished; it lasts as long as the slowest
participant.  The iteration latency is the max across devices of
(compute end vs last collective end) plus the optimizer step.  The one
implementation of that recurrence is
:func:`repro.engine.core.execute_global_dfg`; schedule policies and
perturbations are its inputs, and so is which rank runs which local.
:meth:`Replayer.simulate` calls it once per evaluation: over one local per
rank group in incremental mode, over one freshly built local per rank
under ``incremental=False``.

A :class:`SimulationResult` records each bucket's collective window and the
``(locals, slots)`` it played; its Fig. 6 timeline is a rendering of those
(:func:`timeline_events`), built on first read.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

from repro.common.dtypes import Precision
from repro.core.cost_mapper import CostMapper
from repro.core.dfg import GlobalDFG, LocalDFG
from repro.engine.perturbation import Perturbation  # repro: allow RPR004 Eq. (6) inputs: the Replayer validates policy/perturbation kwargs at construction, before any simulation
from repro.engine.policy import SchedulePolicy, eq6_fast_path, resolve_schedule_policy  # repro: allow RPR004 Eq. (6) inputs: policies resolve here and feed engine.core's recurrence; eq6_fast_path gates only the compiled kernel; the engine never imports core's Replayer
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster
from repro.hardware.device import DeviceSpec
from repro.kernel import (
    compile_global,
    compile_local,
    candidate_row as kernel_candidate_row,
    simulate_batch as kernel_simulate_batch,
)
from repro.parallel.comm_model import CollectiveModel, resolve_collective_model
from repro.quant.qsgd import level_bits
from repro.profiling.casting import CastCostCalculator
from repro.profiling.memory import MemoryEstimate, MemoryModel
from repro.profiling.profiler import OperatorCostCatalog


@dataclasses.dataclass
class TimelineEvent:
    """One executed interval, for Fig. 6-style waterfalls."""

    rank: int
    device: str
    stream: str
    start: float
    end: float
    label: str


@dataclasses.dataclass
class ReplayerStats:
    """Counters for the incremental replay engine (diagnostics/benchmarks)."""

    simulate_calls: int = 0
    #: simulate() calls served by the compiled array kernel.  Reads 0: the
    #: recurrence serves simulate(), and the kernel serves only
    #: :meth:`Replayer.whatif_candidates`.
    kernel_sims: int = 0
    #: Candidates evaluated through the batched what-if kernel sweep.
    whatif_evals: int = 0


@dataclasses.dataclass
class SimulationResult:
    """Outcome of one global-DFG simulation.  :attr:`timeline` renders on
    first read and is not compared by ``==``."""

    iteration_time: float
    per_device_compute: dict[int, float]
    comm_wait_time: dict[int, float]
    memory: dict[int, MemoryEstimate]
    #: ``(start, end)`` of each bucket's collective, in bucket order.
    comm_windows: list[tuple[float, float]] = dataclasses.field(
        default_factory=list
    )
    #: What was played: the global DFG's ``(locals, slots)``, one
    #: ``(rank, index of the local it ran)`` per rank in play order (the
    #: ranks of one Replayer rank group share one local).  Read only to
    #: render the timeline.
    played: tuple[Sequence[LocalDFG], Sequence[tuple[int, int]]] = (
        dataclasses.field(default=((), ()), compare=False, repr=False)
    )

    @property
    def throughput(self) -> float:
        """Iterations per second."""
        return 1.0 / self.iteration_time if self.iteration_time > 0 else float("inf")

    @functools.cached_property
    def timeline(self) -> list[TimelineEvent]:
        """Per-rank stream intervals for Fig. 6-style waterfalls."""
        return timeline_events(self)


@dataclasses.dataclass(eq=False)
class RankGroup:
    """Ranks sharing one DAG object, catalog, cast model and device: one
    plan, so one cost mapper, which serves the group's LocalDFG and memory
    estimate."""

    ranks: list[int]
    device: DeviceSpec
    dag: PrecisionDAG
    mapper: CostMapper
    #: Price class: the index of the replayer's first group with an equal
    #: device and the same catalog and cast-model objects.  Groups of one
    #: class price equal DAG contents alike, so they share compiled kernel
    #: locals.
    key: int


class Replayer:
    """Simulates hybrid mixed-precision distributed training.

    Parameters
    ----------
    cluster:
        Worker topology (provides the all-reduce cost model).
    dags:
        Per-rank Precision DAGs (same structure).  Ranks mapped to one DAG
        object share its precisions; ``PlanSession.prepare`` maps each
        device type to one DAG.
    catalogs, cast_calcs:
        Per-rank profiled cost catalogs and fitted casting models.
    optimizer_slots:
        Memory-model optimizer state multiplier.
    collective_model:
        All-reduce cost model (name, instance, or ``None`` for the flat-ring
        default — the legacy single-bottleneck ring, bit-identical to the
        pre-topology Replayer).
    schedule_policy:
        Execution schedule (name, instance, or ``None`` for the DDP-overlap
        default): the per-rank bucket-readiness and compute-end anchors
        Eq. (6) reads.
    perturbation:
        Optional deterministic straggler/bandwidth-drift injection
        (:class:`repro.engine.Perturbation`), applied to Eq. (6)'s inputs.
    prices:
        Optional per-rank price memos (see :mod:`repro.core.cost_mapper`),
        handed to the rank's group's :class:`CostMapper`; ranks of one
        device type alias one dict, as they alias one DAG.  ``None`` gives
        every mapper a private memo.

    Per-query state lives per :class:`RankGroup`, in its
    :class:`CostMapper`: the one cache of the group's LocalDFG and memory
    terms, validated on the DAG's version counters.  ``dags[rank]`` and
    ``mappers[rank]`` are read-only aliases of the rank's group; timelines
    and per-device compute and wait times keep their rank ids.

    How an evaluation is played is never a knob: every call plays Eq. (6)
    once, over ``(locals, slots)`` — in incremental mode one local per rank
    group, each rank mapped onto its group's; under ``incremental=False``,
    the reference mode, one freshly built local per rank.  A perturbation
    scales each rank differently, so the recurrence expands the slots into
    per-rank scaled copies.  The compiled array kernel
    (:mod:`repro.kernel`) serves only :meth:`whatif_candidates`.
    """

    def __init__(
        self,
        cluster: Cluster,
        dags: dict[int, PrecisionDAG],
        catalogs: dict[int, OperatorCostCatalog],
        cast_calcs: dict[int, CastCostCalculator],
        optimizer_slots: int = 1,
        incremental: bool = True,
        collective_model: CollectiveModel | str | None = None,
        schedule_policy: SchedulePolicy | str | None = None,
        perturbation: Perturbation | None = None,
        prices: dict[int, dict] | None = None,
    ) -> None:
        self.cluster = cluster
        self.collective_model = resolve_collective_model(collective_model)
        self.schedule_policy = resolve_schedule_policy(schedule_policy)
        self.perturbation = perturbation
        self.dags = dags
        #: Per-bucket QSGD compression levels (the joint-planning axis), or
        #: ``None`` for uncompressed.  Set via :meth:`set_bucket_compression`;
        #: all-zero levels normalize to ``None`` so level 0 takes the exact
        #: uncompressed code path, in the recurrence and the kernel alike.
        self.bucket_compression: tuple[int, ...] | None = None
        self.memory_model = MemoryModel(optimizer_slots=optimizer_slots)
        #: When False every simulate() rebuilds every rank's DFG and memory
        #: estimate from scratch (the pre-caching behaviour) — kept as the
        #: reference mode for equivalence tests and the speed benchmark.
        self.incremental = incremental
        self.stats = ReplayerStats()
        #: Rank groups in cluster worker order of their first rank.
        self.groups: list[RankGroup] = []
        self._group_of: dict[int, RankGroup] = {}
        for w in cluster.workers:
            dag, catalog, cast = dags[w.rank], catalogs[w.rank], cast_calcs[w.rank]
            priced_alike = [
                g for g in self.groups
                if g.device == w.device
                and g.mapper.catalog is catalog
                and g.mapper.cast_calc is cast
            ]
            group = next((g for g in priced_alike if g.dag is dag), None)
            if group is None:
                mapper = CostMapper(
                    dag, catalog, cast, device=w.device,
                    prices=None if prices is None else prices[w.rank],
                )
                key = priced_alike[0].key if priced_alike else len(self.groups)
                group = RankGroup([], w.device, dag, mapper, key)
                self.groups.append(group)
            group.ranks.append(w.rank)
            self._group_of[w.rank] = group
        #: (rank, index of its group) in worker order: the slots that map
        #: every rank onto its group's local in the recurrence.
        self._leader_slots = tuple(
            (rank, self.groups.index(group))
            for rank, group in self._group_of.items()
        )
        self.mappers: dict[int, CostMapper] = {
            rank: group.mapper for rank, group in self._group_of.items()
        }
        # price class -> (precision signature, structure fingerprint,
        # CompiledLocal | None) — fingerprints, not per-instance counters,
        # because groups of one class share entries; None is a cached "not
        # lowerable" verdict so failures don't retry.
        self._kernel_local_cache: dict[int, tuple[tuple, int, object]] = {}
        # (cluster, collective model, per-group CompiledLocal, bucket bits)
        # -> CompiledGlobal; the priced durations are baked in, so the
        # cluster and collective model ride in the key.
        self._kernel_global_cache: tuple[tuple, object] | None = None

    # ------------------------------------------------------------------
    def apply_plan(self, rank: int, plan: dict[str, Precision]) -> None:
        """Install a per-op precision plan on one worker's DAG."""
        self.dags[rank].apply_plan(plan)

    def set_bucket_compression(
        self, levels: tuple[int, ...] | list[int] | None
    ) -> None:
        """Install per-bucket QSGD compression levels (``None`` = off).

        Levels are validated against the :data:`~repro.quant.qsgd.LEVEL_BITS`
        ladder; an all-zero assignment normalizes to ``None`` so the
        uncompressed configuration is *indistinguishable* from never having
        touched the axis — same cache keys, same float operations, same
        bits in the recurrence and the kernel.
        """
        if levels is None:
            self.bucket_compression = None
            return
        levels = tuple(int(lvl) for lvl in levels)
        for lvl in levels:
            level_bits(lvl)  # raises ValueError on unknown rungs
        self.bucket_compression = levels if any(levels) else None

    def _bucket_bits(self) -> tuple[int, ...] | None:
        """Per-bucket wire bit widths of the current compression levels,
        or ``None`` when uncompressed (the hot-path branch: one attribute
        read on every simulate)."""
        levels = self.bucket_compression
        if levels is None:
            return None
        return tuple(level_bits(lvl) for lvl in levels)

    def full_rebuilds(self) -> int:
        """Total from-scratch LocalDFG constructions across all mappers."""
        return sum(g.mapper.full_rebuilds for g in self.groups)

    def incremental_updates(self) -> int:
        """Total delta DFG updates across all mappers."""
        return sum(g.mapper.incremental_updates for g in self.groups)

    # ------------------------------------------------------------------
    def local_dfg(self, rank: int) -> LocalDFG:
        """The LocalDFG ``rank`` runs under its current precisions.

        Incremental mode serves the rank's group's DFG — one object for
        every rank of the group, built under its first rank: the cost
        mapper's retained DFG, delta-updated when the DAG moved, never
        rebuilt.  ``incremental=False`` builds a fresh one under ``rank``.
        """
        group = self._group_of[rank]
        if not self.incremental:
            return group.mapper.build_local_dfg(group.device.name, rank)
        return group.mapper.current_dfg(group.device.name, group.ranks[0])

    def compute_time(self, rank: int) -> float:
        """``local_dfg(rank).compute_time``, bit for bit, without
        assembling a DFG in incremental mode (the allocator's brute force
        reads only this off each trial)."""
        if not self.incremental:
            return self.local_dfg(rank).compute_time
        return self._group_of[rank].mapper.compute_time()

    # ------------------------------------------------------------------
    # compiled array kernel tier (repro.kernel): batched what-ifs only
    # ------------------------------------------------------------------
    def _compiled_local(self, group: RankGroup):
        """The group's :class:`repro.kernel.CompiledLocal`.

        Keyed on the group's price class and validated on precision
        signature + structure fingerprint, so groups priced alike share one
        entry; a cached ``None`` verdict for DFGs that refuse to lower keeps
        failures from retrying on every call.
        """
        dag = group.dag
        sig = dag.precision_signature()
        fingerprint = dag.structure_fingerprint()
        entry = self._kernel_local_cache.get(group.key)
        if entry is not None and entry[0] == sig and entry[1] == fingerprint:
            return entry[2]
        compiled = compile_local(
            self.local_dfg(group.ranks[0]), group.mapper.kernel_layout()
        )
        self._kernel_local_cache[group.key] = (sig, fingerprint, compiled)
        return compiled

    def compiled_global(self):
        """The compiled representation of the current global DFG, or None.

        ``None`` whenever the kernel tier cannot serve this replayer's
        evaluations bit-identically: its own schedule policy and
        perturbation fail :func:`~repro.engine.policy.eq6_fast_path`,
        non-incremental mode, or a local that refuses to lower.  Callers
        fall back to the object path.
        """
        if not eq6_fast_path(self.schedule_policy, self.perturbation):
            return None
        return self._compile()

    def _compile(self):
        """:meth:`compiled_global` after its dispatch rule."""
        if not self.incremental:
            return None
        locals_ = tuple(self._compiled_local(group) for group in self.groups)
        if any(cl is None for cl in locals_):
            return None
        # Compiled locals are immutable and keyed by content, so their
        # identities stand for the plan.  The compression axis rides in the
        # key: a level change recompiles the global (durations are baked
        # into the CompiledGlobal), and level 0 normalizes to None so
        # uncompressed keys are unchanged.
        bits = self._bucket_bits()
        gkey = (self.cluster, self.collective_model, locals_, bits)
        cached = self._kernel_global_cache
        if cached is not None and cached[0] == gkey:
            return cached[1]
        # Priced through the same bucket_comm_durations as the recurrence,
        # so the kernel cannot drift on a cost term.
        durs = bucket_comm_durations(
            [self.local_dfg(group.ranks[0]) for group in self.groups],
            self.cluster, self.collective_model, bits,
        )
        by_group = dict(zip(self.groups, locals_))
        cg = compile_global(
            [(rank, by_group[group]) for rank, group in self._group_of.items()],
            durs,
        )
        self._kernel_global_cache = (gkey, cg)
        return cg

    def whatif_candidates(self, candidates):
        """Evaluate ``(rank, op, target)`` what-ifs in one batched sweep.

        No planner calls it (the allocator's recovery applies one op and
        re-simulates); it is the compiled kernel's one entry point.  Each
        candidate is described mutation-free by
        :meth:`CostMapper.whatif_change`, spliced into the compiled base by
        :func:`repro.kernel.candidate_row`, and the whole batch plays
        Eq. (6) in one :func:`repro.kernel.simulate_batch` call.  Returns
        one ``(throughput, memory_total_bytes)`` pair per candidate —
        bit-identical to apply + ``simulate()`` + revert — or ``None`` when
        the kernel tier cannot serve the batch (callers fall back to the
        sequential path).  The DAGs are never touched.
        """
        if not candidates:
            return []
        cg = self.compiled_global()
        if cg is None:
            return None
        rows = []
        local_indices = []
        compute_ends = []
        mem_totals = []
        for rank, op, target in candidates:
            cl = cg.locals[cg.local_of_rank[rank]]
            change = self.mappers[rank].whatif_change(op, target)
            rc = kernel_candidate_row(cl, change)
            if rc is None:
                return None
            row, compute_end = rc
            rows.append(row)
            local_indices.append(cg.local_of_rank[rank])
            compute_ends.append(compute_end)
            mem_totals.append(
                self.memory_model.footprint(
                    self.dags[rank].total_weight_elems(),
                    change.wcopy_total, change.act_total, change.workspace,
                ).total
            )
        iterations = kernel_simulate_batch(cg, rows, local_indices, compute_ends)
        self.stats.whatif_evals += len(rows)
        results = []
        for iteration, mem in zip(iterations.tolist(), mem_totals):
            throughput = 1.0 / iteration if iteration > 0 else float("inf")
            results.append((throughput, mem))
        return results

    # ------------------------------------------------------------------
    def simulate(
        self,
        schedule_policy: SchedulePolicy | str | None = None,
        perturbation: Perturbation | None = None,
    ) -> SimulationResult:
        """Estimate one iteration's latency under current precisions.

        ``schedule_policy``/``perturbation`` override the instance defaults
        for this call only.  One call of the recurrence plays the group
        leaders' locals with every rank slotted onto its group's in
        incremental mode, and one fresh local per rank under
        ``incremental=False``.  Every result renders its timeline on
        demand.
        """
        self.stats.simulate_calls += 1
        by_group = {
            group: self.memory_estimate(group.ranks[0]) for group in self.groups
        }
        memory = {rank: by_group[group] for rank, group in self._group_of.items()}
        policy = (
            self.schedule_policy
            if schedule_policy is None
            else resolve_schedule_policy(schedule_policy)
        )
        pert = self.perturbation if perturbation is None else perturbation
        if self.incremental:
            gdfg = GlobalDFG(
                [self.local_dfg(g.ranks[0]) for g in self.groups],
                self._leader_slots,
            )
        else:
            gdfg = GlobalDFG(
                [self.local_dfg(w.rank) for w in self.cluster.workers]
            )
        from repro.engine.core import execute_global_dfg

        return execute_global_dfg(
            gdfg, self.cluster, memory=memory,
            collective_model=self.collective_model,
            schedule_policy=policy, perturbation=pert,
            bucket_bits=self._bucket_bits(),
        )

    def memory_estimate(self, rank: int) -> MemoryEstimate:
        """The rank's footprint.  Incremental mode takes the
        precision-dependent terms from the group's cost mapper, which
        maintains them per op (O(affected), not O(graph))."""
        group = self._group_of[rank]
        if not self.incremental:
            return self.memory_model.estimate(group.dag)
        return self.memory_model.footprint(
            group.dag.total_weight_elems(), *group.mapper.memory_components()
        )


def bucket_comm_durations(
    locals_: list[LocalDFG],
    cluster: Cluster,
    comm_model: CollectiveModel,
    bucket_bits: tuple[int, ...] | None = None,
) -> list[float]:
    """Per-bucket collective durations, priced once per distinct size.

    In synchronous data parallelism every rank's bucket ``n`` holds the
    same gradients, so re-pricing an identical collective per rank would be
    pure waste; one call per distinct byte count yields the same max
    bit-for-bit, and so does one local per rank group.  Shared by the
    Eq. (6) recurrence and the compiled kernel's
    batched what-ifs so their pricing cannot drift.

    ``bucket_bits`` optionally carries per-bucket gradient bit widths (the
    compression axis): pricing then routes through
    :meth:`~repro.parallel.comm_model.CollectiveModel.allreduce_time_bits`
    keyed on ``(nbytes, bits)``.  ``None`` — the default everywhere — takes
    the plain ``allreduce_time`` path, so uncompressed callers cannot drift
    by a single float operation.

    Each distinct byte count is priced at most once across the whole call
    (``allreduce_time`` is a pure function of cluster + size).
    """
    ref = locals_[0].buckets
    if bucket_bits is not None and len(bucket_bits) != len(ref):
        raise ValueError(
            f"bucket_bits has {len(bucket_bits)} entries for "
            f"{len(ref)} buckets"
        )
    price: dict = {}
    durations: list[float] = []
    for n in range(len(ref)):
        sizes = {ldfg.buckets[n].nbytes for ldfg in locals_}
        slowest: float | None = None
        for nbytes in sizes:
            if bucket_bits is None:
                key = nbytes
            else:
                key = (nbytes, bucket_bits[n])
            dur = price.get(key)
            if dur is None:
                if bucket_bits is None:
                    dur = comm_model.allreduce_time(cluster, nbytes)
                else:
                    dur = comm_model.allreduce_time_bits(
                        cluster, nbytes, bucket_bits[n]
                    )
                price[key] = dur
            if slowest is None or dur > slowest:
                slowest = dur
        durations.append(slowest)
    return durations


def timeline_events(result: SimulationResult) -> list[TimelineEvent]:
    """Render a result's timeline: every rank's CUDA stream from t=0 (a
    flat accumulation of its forward and backward nodes), then each
    bucket's collective window on every rank, then each rank's optimizer
    at ``max(fwd + bwd, last comm end)``.

    That optimizer anchor holds for both current schedule policies, which
    differ only in when buckets launch (already in ``comm_windows``).
    Ranks keep the order of the played slots.
    """
    locals_, slots = result.played
    ranks = [(rank, locals_[i]) for rank, i in slots]
    timeline: list[TimelineEvent] = []
    for rank, ldfg in ranks:
        t = 0.0
        for node in (*ldfg.forward, *ldfg.backward):
            timeline.append(TimelineEvent(
                rank, ldfg.device_name, "cuda", t, t + node.duration, node.name
            ))
            t += node.duration
    for n, (start, end) in enumerate(result.comm_windows):
        for rank, ldfg in ranks:
            timeline.append(TimelineEvent(
                rank, ldfg.device_name, "comm", start, end, f"allreduce:bucket{n}"
            ))
    comm_end = result.comm_windows[-1][1] if result.comm_windows else 0.0
    for rank, ldfg in ranks:
        if ldfg.optimizer:
            start = max(ldfg.forward_time + ldfg.backward_time, comm_end)
            timeline.append(TimelineEvent(
                rank, ldfg.device_name, "cuda",
                start, start + ldfg.optimizer.duration, "optimizer",
            ))
    return timeline
