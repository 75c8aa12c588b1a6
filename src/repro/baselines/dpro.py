"""Dpro-style latency replay [35] — the Table III prediction baseline.

Dpro diagnoses distributed training from per-op traces; applied to mixed
precision, its prediction "does not consider the casting costs and operator
dependency" (Sec. VII-A2).  Concretely, this replayer:

* charges each operator its *pure* execution cost at its assigned precision
  (adjustable ops) or at FP32 (everything else — no cascade modelling);
* inserts **no** cast nodes anywhere;
* keeps the same communication model (Dpro does model collectives well).

The gap to ground truth is therefore exactly the casting + cascade share of
the iteration, which is what Table III isolates.  The pricing model is
:class:`CastingBlindCostSource`; assembly
(:func:`repro.core.dfg.assemble_execution_line`) and execution go through
the same shared paths as the Replayer and the ground-truth simulator.
"""

from __future__ import annotations

from repro.common.dtypes import Precision
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
from repro.engine.core import execute_global_dfg
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster
from repro.profiling.profiler import OperatorCostCatalog


class CastingBlindCostSource:
    """Dpro pricing [35]: each op's *pure* cost at its assigned precision
    (adjustable ops) or FP32 (everything else — no cascade modelling), no
    cast nodes anywhere."""

    def __init__(self, dag: PrecisionDAG, catalog) -> None:
        self.dag = dag
        self.catalog = catalog

    def _pure(self, op: str):
        spec = self.dag.spec(op)
        # No cascade: only the op's own assignment matters.
        prec = self.dag.precision(op) if spec.is_adjustable else Precision.FP32
        if self.catalog.has(op, prec):
            return self.catalog.get(op, prec)
        return self.catalog.get(op, Precision.FP32)

    def forward_segment(self, name: str) -> list[DFGNode]:
        cost = self._pure(name)
        if cost.forward > 0:
            return [DFGNode(name, NodeKind.FORWARD, cost.forward, op=name)]
        return []

    def backward_segment(self, name: str) -> list[DFGNode]:
        cost = self._pure(name)
        if cost.backward > 0:
            return [
                DFGNode(f"bwd:{name}", NodeKind.BACKWARD, cost.backward, op=name)
            ]
        return []


class DproReplayer:
    """Casting-blind, cascade-blind latency prediction.

    ``collective_model``, ``schedule_policy`` and ``perturbation`` are the
    Eq. (6) inputs shared with the Replayer (Dpro models collectives and
    the schedule; only its op pricing differs).
    """

    def __init__(
        self,
        cluster: Cluster,
        dags: dict[int, PrecisionDAG],
        catalogs: dict[int, OperatorCostCatalog],
        collective_model=None,
        schedule_policy=None,
        perturbation=None,
    ) -> None:
        self.cluster = cluster
        self.dags = dags
        self.catalogs = catalogs
        self.collective_model = collective_model
        self.schedule_policy = schedule_policy
        self.perturbation = perturbation
        self._workers_by_rank = {w.rank: w for w in cluster.workers}

    def _build_local(self, rank: int) -> LocalDFG:
        # Rank is an identity, not a list position — index the worker map.
        worker = self._workers_by_rank[rank]
        dag = self.dags[rank]
        source = CastingBlindCostSource(dag, self.catalogs[rank])
        topo = dag.topo_order()
        return assemble_execution_line(
            worker.device.name,
            rank,
            topo,
            price_segments(topo, source.forward_segment, source.backward_segment),
            frozenset(dag.weighted_ops()),
            weight_buckets(dag),
            optimizer_pass_seconds(dag.total_weight_elems(), worker.device),
        )

    def simulate(self) -> SimulationResult:
        gdfg = GlobalDFG([self._build_local(w.rank) for w in self.cluster.workers])
        return execute_global_dfg(
            gdfg, self.cluster,
            collective_model=self.collective_model,
            schedule_policy=self.schedule_policy,
            perturbation=self.perturbation,
        )
