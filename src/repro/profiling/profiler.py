"""Operator cost catalogs (workflow step 2, "Operator Cost").

For every operator of a model DAG and every precision its kernels exist at,
the profiler runs repeated backend measurements and stores the mean forward
and backward latency.  The Replayer later *looks these up* (the ``CC_i`` of
Algorithm 1) instead of re-measuring — mirroring how the paper profiles once
on the target hardware and replays offline.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.backend.lp_backend import LPBackend
from repro.common.dtypes import Precision
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OperatorSpec


@dataclasses.dataclass(frozen=True)
class OperatorCost:
    """Mean measured latencies of one (operator, precision) pair."""

    forward: float
    backward: float

    @property
    def total(self) -> float:
        return self.forward + self.backward


class OperatorCostCatalog:
    """``(op name, precision) -> OperatorCost`` for one device."""

    def __init__(self, device_name: str) -> None:
        self.device_name = device_name
        self._costs: dict[tuple[str, Precision], OperatorCost] = {}
        self._input_elems: dict[str, int] = {}

    def put(self, op: str, precision: Precision, cost: OperatorCost) -> None:
        self._costs[(op, precision)] = cost

    def get(self, op: str, precision: Precision) -> OperatorCost:
        key = (op, precision)
        if key not in self._costs:
            raise KeyError(
                f"no profile for op {op!r} at {precision.value} on "
                f"{self.device_name}"
            )
        return self._costs[key]

    def has(self, op: str, precision: Precision) -> bool:
        return (op, precision) in self._costs

    def input_elems(self, op: str) -> int:
        return self._input_elems.get(op, 0)

    def __len__(self) -> int:
        return len(self._costs)


def _op_input_elems(dag: PrecisionDAG, name: str) -> int:
    """Total elements flowing into an op = sum of predecessors' outputs."""
    preds = dag.predecessors(name)
    if not preds:
        return 0
    return int(sum(dag.spec(p).output_elems for p in preds))


def sample_mean(samples: list[float]) -> float:
    """``np.mean(samples)``, bit for bit, without its dispatch: numpy's
    own (pairwise from 8 samples on) sum, then one division."""
    return float(np.add.reduce(samples)) / len(samples)


def profile_operator_costs(
    dag: PrecisionDAG,
    backend: LPBackend,
    repeats: int = 3,
) -> OperatorCostCatalog:
    """Measure every op at every device-supported precision it has kernels
    for; average ``repeats`` noisy samples per entry.

    Each entry's forward and backward latency is evaluated once; only the
    per-repeat jitter multiplies it (:meth:`LPBackend.op_forward_samples`),
    so every sample equals the matching ``measure_*`` call.
    """
    catalog = OperatorCostCatalog(backend.device.name)
    reps = range(repeats)
    for name in dag.topo_order():
        spec: OperatorSpec = dag.spec(name)
        input_elems = _op_input_elems(dag, name)
        catalog._input_elems[name] = input_elems
        for precision in spec.supported_precisions():
            if not backend.device.supports(precision):
                continue
            fwd = sample_mean(
                backend.op_forward_samples(spec, precision, input_elems, reps)
            )
            bwd = sample_mean(
                backend.op_backward_samples(spec, precision, input_elems, reps)
            )
            catalog.put(name, precision, OperatorCost(forward=fwd, backward=bwd))
    return catalog
