"""Dpro-style latency replay [35] — the Table III prediction baseline.

Dpro diagnoses distributed training from per-op traces; applied to mixed
precision, its prediction "does not consider the casting costs and operator
dependency" (Sec. VII-A2).  Concretely, this replayer:

* charges each operator its *pure* execution cost at its assigned precision
  (adjustable ops) or at FP32 (everything else — no cascade modelling);
* inserts **no** cast nodes anywhere;
* keeps the same communication model (Dpro does model collectives well).

The gap to ground truth is therefore exactly the casting + cascade share of
the iteration, which is what Table III isolates.  The pricing model lives
in :class:`repro.engine.costs.CastingBlindCostSource`; assembly and
execution go through the same shared paths as the Replayer and the
ground-truth simulator.
"""

from __future__ import annotations

from repro.core.dfg import GlobalDFG, LocalDFG
from repro.core.replayer import SimulationResult
from repro.engine.core import execute_global_dfg
from repro.engine.costs import CastingBlindCostSource, assemble_local_dfg
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster
from repro.profiling.profiler import OperatorCostCatalog


class DproReplayer:
    """Casting-blind, cascade-blind latency prediction."""

    def __init__(
        self,
        cluster: Cluster,
        dags: dict[int, PrecisionDAG],
        catalogs: dict[int, OperatorCostCatalog],
        collective_model=None,
        schedule_policy=None,
    ) -> None:
        self.cluster = cluster
        self.dags = dags
        self.catalogs = catalogs
        # Dpro models collectives well — share the Replayer's cost model.
        self.collective_model = collective_model
        self.schedule_policy = schedule_policy
        self._workers_by_rank = {w.rank: w for w in cluster.workers}

    def _build_local(self, rank: int) -> LocalDFG:
        # Rank is an identity, not a list position — index the worker map.
        worker = self._workers_by_rank[rank]
        source = CastingBlindCostSource(
            self.dags[rank], self.catalogs[rank], worker.device
        )
        return assemble_local_dfg(source, worker.device.name, rank)

    def simulate(self) -> SimulationResult:
        gdfg = GlobalDFG([self._build_local(w.rank) for w in self.cluster.workers])
        return execute_global_dfg(
            gdfg, self.cluster,
            collective_model=self.collective_model,
            schedule_policy=self.schedule_policy,
        )
