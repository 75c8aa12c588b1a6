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
paper measured: the quality of the latency model.  The pricing model lives
in :class:`repro.engine.costs.MeasuredCostSource`; this class feeds it
through the shared assembly walk and the shared Eq. (6) recurrence, so
the only degrees of freedom left are the costs themselves.
"""

from __future__ import annotations

import dataclasses

from repro.backend.lp_backend import LPBackend
from repro.common.rng import derive_seed, new_rng
from repro.core.dfg import GlobalDFG, LocalDFG
from repro.core.replayer import SimulationResult
from repro.graph.dag import PrecisionDAG
from repro.hardware.cluster import Cluster

# NOTE: repro.engine imports are function-scoped below — this module is
# imported by repro.core's package __init__, which the engine package's own
# imports re-enter; a module-level import here would read a partially
# initialized repro.engine.costs.


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
        from repro.engine.costs import MeasuredCostSource, assemble_local_dfg

        # Rank is an identity, not a list position — index the worker map,
        # never ``cluster.workers[rank]``.
        worker = self._workers_by_rank[rank]
        source = MeasuredCostSource(
            dag=self.dags[rank],
            backend=self.backends[rank],
            device=worker.device,
            rng=new_rng(derive_seed(self.seed, "gt", rank, iteration)),
            iteration=iteration,
            comm_contention=self.comm_contention,
        )
        return assemble_local_dfg(source, worker.device.name, rank)

    # ------------------------------------------------------------------
    def run(self, iterations: int = 5) -> SimulationResult:
        """Average ``iterations`` measured iterations (the paper measures
        actual training iteration time and repeats 5x).

        ``iteration_time`` is the mean; every per-iteration field (per-device
        compute, comm waits, comm windows, and so the timeline) describes
        the last iteration."""
        from repro.engine.core import execute_global_dfg

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
