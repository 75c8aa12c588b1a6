"""One line per planning request of a fixed, fast set: the bit-identity check.

A refactor that claims no number moves must reproduce the committed
``benchmarks/plan_digest.golden`` (``tests/test_plan_digest.py`` compares
it line by line); to diff by hand::

    python -m benchmarks.plan_digest > digest.txt

The set: ``mini_bert`` at batch 8 (``width_scale=32``, ``spatial_scale=8``:
four gradient buckets) on ``cluster_a_4+4`` and ``cloud_edge_4+2x2``,
every registered strategy, under the default schedule, ``blocking_sync``
and one straggler + jitter + drift perturbation; ``resnet50`` at batch 8
on ``cluster_a_4+4`` under every strategy; and on ``cloud_edge_4+2x2``
one ``qsync`` plan under the hierarchical collective and one
``qsync+qsgd`` plan under the compressed multi-hop collective.  Every
request profiles with ``profile_repeats=1``, so the profile lines that
follow pin what averaging touches: per model, device type of those
clusters and repeat count in :data:`PROFILE_REPEATS`, a digest of the
operator cost catalog, the cast fit and the synthesized statistics as
they are persisted.

The first line names the Python and numpy versions (float formatting and
numpy reductions may differ across them).  Each further line holds the
request's identity, then a digest of ``plan.to_dict()``, the iteration
time's ``float.hex()``, a digest of the per-rank compute and wait dicts
(their order included) and a digest of the rendered timeline.  One
:class:`PlanSession` serves every request, so each device type is
profiled once per cluster and model.  A profile line reads ``profile
<model> <device> r=<repeats>`` and then its three digests.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.backend import LPBackend
from repro.common.stable_hash import stable_digest
from repro.engine import Perturbation
from repro.hardware import get_cluster_preset
from repro.profiling import CastCostCalculator, profile_operator_costs
from repro.profiling.persistence import (
    cast_calc_to_dict,
    catalog_to_dict,
    stats_to_dict,
)
from repro.profiling.stats import synthesize_stats
from repro.session import PlanRequest, PlanSession, available_strategies

MODEL_KWARGS = {
    "mini_bert": dict(batch_size=8, width_scale=32, spatial_scale=8),
    "resnet50": dict(batch_size=8),
}
CLUSTERS = ("cluster_a_4+4", "cloud_edge_4+2x2")
RUNS = {
    "default": {},
    "blocking_sync": dict(schedule_policy="blocking_sync"),
    "perturbed": dict(
        perturbation=Perturbation(
            seed=7, compute_jitter=0.1, bandwidth_drift=0.2,
            stragglers={1: 1.5},
        )
    ),
    "hierarchical": dict(collective_model="hierarchical"),
    "compressed_multihop": dict(collective_model="compressed_multihop"),
}
#: Schedule and perturbation runs every mini_bert request goes through.
SCHEDULE_RUNS = ("default", "blocking_sync", "perturbed")
#: ``(model, cluster, strategy, run)`` per request, in output order.
REQUESTS = (
    *(
        ("mini_bert", cluster, strategy, run)
        for cluster in CLUSTERS
        for strategy in available_strategies()
        for run in SCHEDULE_RUNS
    ),
    *(
        ("resnet50", "cluster_a_4+4", strategy, "default")
        for strategy in available_strategies()
    ),
    ("mini_bert", "cloud_edge_4+2x2", "qsync", "hierarchical"),
    ("mini_bert", "cloud_edge_4+2x2", "qsync+qsgd", "compressed_multihop"),
)
#: Repeat counts the profile lines average over (numpy sums pairwise from
#: 8 samples on, so 8 is among them).
PROFILE_REPEATS = (1, 2, 3, 8)


def version_line() -> str:
    """The header line: the versions the digests were computed under."""
    return f"# python {platform.python_version()} numpy {np.__version__}"


def digest_line(request: tuple[str, ...], outcome) -> str:
    """The request's identity followed by its four result digests."""
    sim = outcome.simulation
    per_rank = (
        list(sim.per_device_compute.items()), list(sim.comm_wait_time.items())
    )
    timeline = [
        (e.rank, e.device, e.stream, e.start, e.end, e.label)
        for e in sim.timeline
    ]
    return (
        f"{' '.join(request)} "
        f"plan={stable_digest(outcome.plan.to_dict())} "
        f"iter={sim.iteration_time.hex()} "
        f"ranks={stable_digest(per_rank)} "
        f"timeline={stable_digest(timeline)}"
    )


def profile_lines():
    """One line per (model, device type, repeats): digests of the catalog,
    cast fit and stats a session would persist, profiled with the default
    backend (``profile_seed=0``)."""
    devices = {}
    for cluster in CLUSTERS:
        for worker in get_cluster_preset(cluster).workers:
            devices.setdefault(worker.device.name, worker.device)
    for model, kwargs in MODEL_KWARGS.items():
        template = PlanRequest(model=model, model_kwargs=kwargs).build_template()
        stats = stable_digest(stats_to_dict(synthesize_stats(template, seed=0)))
        for name, device in devices.items():
            backend = LPBackend(device)
            for repeats in PROFILE_REPEATS:
                catalog = profile_operator_costs(
                    template.copy(), backend, repeats=repeats
                )
                cast = CastCostCalculator(backend, repeats=repeats)
                yield (
                    f"profile {model} {name} r={repeats} "
                    f"catalog={stable_digest(catalog_to_dict(catalog))} "
                    f"cast={stable_digest(cast_calc_to_dict(cast))} "
                    f"stats={stats}"
                )


def main() -> int:
    print(version_line(), flush=True)
    session = PlanSession()
    for request in REQUESTS:
        model, cluster, strategy, run = request
        outcome = session.plan(PlanRequest(
            model=model, model_kwargs=MODEL_KWARGS[model], cluster=cluster,
            strategy=strategy, profile_repeats=1, **RUNS[run],
        ))
        print(digest_line(request, outcome), flush=True)
    for line in profile_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
