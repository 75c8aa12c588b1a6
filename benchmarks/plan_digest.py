"""One line per planning request of a fixed, fast set: the bit-identity check.

A refactor that claims no number moves runs this on both sides and diffs
the output::

    python -m benchmarks.plan_digest > digest.txt

The set: ``mini_bert`` at batch 8 (``width_scale=32``, ``spatial_scale=8``:
four gradient buckets; ``profile_repeats=1``) on ``cluster_a_4+4`` and
``cloud_edge_4+2x2``, every registered strategy, under the default
schedule, ``blocking_sync`` and one straggler + jitter + drift
perturbation.  Each line holds a digest of ``plan.to_dict()``, the
iteration time's ``float.hex()``, a digest of the per-rank compute and
wait dicts (their order included) and a digest of the rendered timeline.
One :class:`PlanSession` serves every request, so each device type is
profiled once per cluster.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.stable_hash import stable_digest
from repro.engine import Perturbation
from repro.session import PlanRequest, PlanSession, available_strategies

MODEL_KWARGS = dict(batch_size=8, width_scale=32, spatial_scale=8)
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
}


def digest_line(cluster: str, strategy: str, run: str, outcome) -> str:
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
        f"{cluster} {strategy} {run} "
        f"plan={stable_digest(outcome.plan.to_dict())} "
        f"iter={sim.iteration_time.hex()} "
        f"ranks={stable_digest(per_rank)} "
        f"timeline={stable_digest(timeline)}"
    )


def main() -> int:
    session = PlanSession()
    for cluster in CLUSTERS:
        for strategy in available_strategies():
            for run, knobs in RUNS.items():
                outcome = session.plan(PlanRequest(
                    model="mini_bert", model_kwargs=MODEL_KWARGS,
                    cluster=cluster, strategy=strategy, profile_repeats=1,
                    **knobs,
                ))
                print(digest_line(cluster, strategy, run, outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
