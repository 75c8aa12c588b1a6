"""Ground-truth execution engine.

The paper validates its Replayer against wall-clock measurements on real
GPUs (Table III).  With no GPUs available, this module supplies the
measurement side: a *finer-grained* simulation that shares the Eq. (6)
synchronization semantics but differs from the Replayer in exactly the ways
real hardware differs from a cost model:

* every kernel's duration is an independently jittered backend *measurement*
  (the Replayer uses catalog means and fitted linear casts);
* per-kernel launch gaps are drawn per instance rather than amortized;
* backward compute overlapping an active collective is slowed by a
  contention factor (NCCL ring reductions steal SM time and memory
  bandwidth from compute streams).

Because the error between Replayer and ground truth arises from cost
aggregation — not from scheduler divergence — Table III measures what the
paper measured: the quality of the latency model.  The pricing model is
:class:`MeasuredCostSource`; its prices go through the Cost Mapper's
assembly walk (:func:`repro.core.dfg.assemble_execution_line`) and the
shared Eq. (6) recurrence, so the only degrees of freedom left are the
costs themselves.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.backend.lp_backend import LPBackend
from repro.common.dtypes import Precision
from repro.common.rng import derive_seed, new_rng
from repro.core.cost_mapper import optimizer_pass_seconds
from repro.core.dfg import (
    DFGNode,
    GlobalDFG,
    LocalDFG,
    NodeKind,
    assemble_execution_line,
    price_segments,
    weight_buckets,
)
from repro.core.replayer import SimulationResult
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OpKind
from repro.graph.propagation import (
    effective_precisions,
    grad_precision,
    output_precision,
)
from repro.hardware.cluster import Cluster


@functools.lru_cache(maxsize=None)
def rep_offset(name: str) -> int:
    """Per-op measurement-rep offset decorrelating cast samples between ops.

    Derived from the op *name* via the seeded FNV mix — builtin ``hash`` is
    salted per process, which made "ground truth" measurements differ from
    run to run (Table III was irreproducible).
    """
    return derive_seed(0, name) % 97


class MeasuredCostSource:
    """Ground-truth pricing: independently jittered backend measurements,
    per-instance launch gaps, and comm-contention-inflated backward costs —
    the ways real hardware differs from the Replayer's cost model.

    ``rng`` is the stateful jitter stream for one ``(rank, iteration)``
    build.  Draws stay reproducible because the segments are always
    requested in one order (:func:`repro.core.dfg.price_segments`): every
    op's forward segment in topo order, then every op's backward segment
    in reverse topo order, then the optimizer.
    """

    def __init__(
        self,
        dag: PrecisionDAG,
        backend,
        device,
        rng,
        iteration: int,
        comm_contention: float,
    ) -> None:
        self.dag = dag
        self.backend = backend
        self.device = device
        self.rng = rng
        self.iteration = iteration
        self.contention = 1.0 + comm_contention
        self.effective = effective_precisions(dag)

    # -- jitter primitives --------------------------------------------
    def _jitter(self) -> float:
        return float(1.0 + 0.02 * self.rng.standard_normal())

    def _launch_gap(self) -> float:
        return float(max(self.rng.normal(2e-6, 1e-6), 0.0))

    def _kernel_precision(self, name: str, prec: Precision) -> Precision:
        """Dependent ops with INT8-effective inputs execute FP16 kernels."""
        if not self.backend.device.supports(prec):
            return (
                Precision.FP16
                if self.backend.device.supports(Precision.FP16)
                else Precision.FP32
            )
        if prec is Precision.INT8 and not self.dag.spec(name).is_adjustable:
            return Precision.FP16
        return prec

    def _input_elems(self, name: str) -> int:
        return sum(
            self.dag.spec(p).output_elems for p in self.dag.predecessors(name)
        )

    # -- segments ------------------------------------------------------
    def forward_segment(self, name: str) -> list[DFGNode]:
        dag, backend, it = self.dag, self.backend, self.iteration
        seg: list[DFGNode] = []
        spec = dag.spec(name)
        prec = self.effective[name]
        for pred in dag.predecessors(name):
            src = output_precision(self.effective[pred])
            if src is not prec:
                dur = backend.measure_cast(
                    src, prec, dag.spec(pred).output_elems,
                    rep=it * 131 + rep_offset(name),
                )
                if dur > 0:
                    seg.append(
                        DFGNode(f"cast:{pred}->{name}", NodeKind.CAST,
                                dur * self._jitter() + self._launch_gap(),
                                op=name)
                    )
        if spec.is_adjustable and spec.has_weight and prec is not Precision.FP32:
            dur = backend.measure_cast(
                Precision.FP32, prec, spec.weight_elems, rep=it
            )
            if dur > 0:
                seg.append(
                    DFGNode(f"cast:w:{name}", NodeKind.CAST,
                            dur * self._jitter() + self._launch_gap(), op=name)
                )
        fwd = backend.measure_op_forward(
            spec, self._kernel_precision(name, prec), self._input_elems(name),
            rep=it,
        )
        if fwd > 0:
            seg.append(
                DFGNode(name, NodeKind.FORWARD,
                        fwd * self._jitter() + self._launch_gap(), op=name)
            )
        return seg

    def backward_segment(self, name: str) -> list[DFGNode]:
        dag, backend, it = self.dag, self.backend, self.iteration
        spec = dag.spec(name)
        if spec.kind is OpKind.INPUT:
            return []  # the graph input's gradient is never materialized
        seg: list[DFGNode] = []
        prec = self.effective[name]
        my_grad = grad_precision(prec)
        for succ in dag.successors(name):
            succ_grad = grad_precision(self.effective[succ])
            if succ_grad is not my_grad:
                dur = backend.measure_cast(
                    succ_grad, my_grad, spec.output_elems, rep=it + 7
                )
                if dur > 0:
                    seg.append(
                        DFGNode(f"cast:g:{succ}->{name}", NodeKind.CAST,
                                dur * self.contention * self._jitter()
                                + self._launch_gap(),
                                op=name)
                    )
        bwd = backend.measure_op_backward(
            spec, self._kernel_precision(name, prec), self._input_elems(name),
            rep=it,
        )
        if bwd > 0:
            seg.append(
                DFGNode(f"bwd:{name}", NodeKind.BACKWARD,
                        bwd * self.contention * self._jitter()
                        + self._launch_gap(),
                        op=name)
            )
        return seg

    def optimizer_duration(self) -> float:
        base = optimizer_pass_seconds(self.dag.total_weight_elems(), self.device)
        return base * self._jitter()


class GroundTruthSimulator:
    """Builds jittered, contention-aware global DFGs and executes them.

    Parameters
    ----------
    cluster:
        Worker topology.
    dags:
        Per-rank Precision DAGs (with the plan under test applied).
    backends:
        Per-rank LP backends used as the "hardware" being measured.
    comm_contention:
        Fractional slowdown of backward compute that executes while a
        collective is in flight.  Applied as a uniform inflation of backward
        durations (buckets overlap most of the backward in DDP).
    seed:
        Jitter stream seed.
    collective_model:
        All-reduce cost model (shared with the Replayer so Table III's
        comparison stays about compute-cost modelling, not about divergent
        collectives); ``None`` keeps the flat-ring default.
    schedule_policy:
        Execution schedule (``None`` = DDP overlap, the Eq. (6) default),
        passed to the shared recurrence.
    perturbation:
        Optional deterministic straggler/bandwidth-drift injection on top
        of the measured jitter (:class:`repro.engine.Perturbation`).
    """

    def __init__(
        self,
        cluster: Cluster,
        dags: dict[int, PrecisionDAG],
        backends: dict[int, LPBackend],
        comm_contention: float = 0.02,
        seed: int = 0,
        collective_model=None,
        schedule_policy=None,
        perturbation=None,
    ) -> None:
        self.cluster = cluster
        self.dags = dags
        self.backends = backends
        self.comm_contention = comm_contention
        self.seed = seed
        self.collective_model = collective_model
        self.schedule_policy = schedule_policy
        self.perturbation = perturbation
        self._workers_by_rank = {w.rank: w for w in cluster.workers}

    # ------------------------------------------------------------------
    def _build_local(self, rank: int, iteration: int) -> LocalDFG:
        # Rank is an identity, not a list position — index the worker map,
        # never ``cluster.workers[rank]``.
        worker = self._workers_by_rank[rank]
        dag = self.dags[rank]
        source = MeasuredCostSource(
            dag=dag,
            backend=self.backends[rank],
            device=worker.device,
            rng=new_rng(derive_seed(self.seed, "gt", rank, iteration)),
            iteration=iteration,
            comm_contention=self.comm_contention,
        )
        topo = dag.topo_order()
        prices = price_segments(
            topo, source.forward_segment, source.backward_segment
        )
        return assemble_execution_line(
            worker.device.name,
            rank,
            topo,
            prices,
            frozenset(dag.weighted_ops()),
            weight_buckets(dag),
            source.optimizer_duration(),
        )

    # ------------------------------------------------------------------
    def run(self, iterations: int = 5) -> SimulationResult:
        """Average ``iterations`` measured iterations (the paper measures
        actual training iteration time and repeats 5x).

        ``iteration_time`` is the mean; every per-iteration field (per-device
        compute, comm waits, comm windows, and so the timeline) describes
        the last iteration."""
        from repro.engine.core import execute_global_dfg

        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        total = 0.0
        last: SimulationResult | None = None
        for it in range(iterations):
            gdfg = GlobalDFG(
                [self._build_local(w.rank, it) for w in self.cluster.workers]
            )
            last = execute_global_dfg(
                gdfg, self.cluster,
                collective_model=self.collective_model,
                schedule_policy=self.schedule_policy,
                perturbation=self.perturbation,
            )
            total += last.iteration_time
        assert last is not None
        return dataclasses.replace(last, iteration_time=total / iterations)
