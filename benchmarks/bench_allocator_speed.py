"""Allocator hot-loop speed: incremental replay engine vs. full rebuilds.

The Allocator's recovery loop re-simulates the cluster after every tentative
one-op promotion.  The incremental replay engine (dirty-tracked Precision
DAGs, delta Algorithm-1 cost mapping, per-op prices memoized on their
precision context, one cost mapper per device type serving its DFG and
memory terms) makes each trial O(affected subgraph); this benchmark runs
the same allocation twice — once with the engine disabled (every simulate
rebuilds every rank's LocalDFG from scratch, the pre-engine behaviour) and
once with it enabled — verifies the final plans are byte-identical, and
writes wall times, rebuild/delta counters and the speedup to
``BENCH_allocator.json``.

Standalone: ``python -m benchmarks.bench_allocator_speed [output.json]``.
The tier-1 suite runs a scaled-down smoke invocation
(``tests/test_bench_allocator_speed.py``) so fast-path regressions fail
loudly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.allocator import Allocator
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.hardware import make_cluster_a
from repro.models import mini_model_graph
from repro.profiling import synthesize_stats
from repro.session import PlanRequest, PlanSession

#: The ``bench_ablation_allocator`` mini-BERT model on ClusterA's default
#: 4+4 slice (the paper's testbed is 16+16; full-rebuild cost scales
#: linearly with ranks, while the incremental engine keeps one DAG, cost
#: mapper and DFG per device type and is nearly flat).
FULL_SETUP = dict(
    width_scale=24, spatial_scale=8, batch=8,
    n_training=4, n_inference=4, profile_repeats=2,
)
#: Scaled down for the tier-1 smoke test.
SMALL_SETUP = dict(
    width_scale=8, spatial_scale=4, batch=4,
    n_training=1, n_inference=1, profile_repeats=1,
)


def _build_allocator(
    width_scale: int,
    spatial_scale: int,
    batch: int,
    n_training: int,
    n_inference: int,
    profile_repeats: int,
    incremental: bool,
) -> Allocator:
    cluster = make_cluster_a(n_training, n_inference)

    def builder():
        return mini_model_graph(
            "mini_bert", batch_size=batch,
            width_scale=width_scale, spatial_scale=spatial_scale,
        )

    replayer = PlanSession().prepare(
        PlanRequest(model=builder, cluster=cluster, profile_repeats=profile_repeats)
    ).replayer
    replayer.incremental = incremental
    indicators = {}
    for w in cluster.inference_workers:
        if w.device.name not in indicators:
            dag = replayer.dags[w.rank]
            stats = synthesize_stats(dag, seed=0)
            indicators[w.device.name] = VarianceIndicator(
                dag, stats, gamma_for_loss("ce", batch)
            )
    return Allocator(replayer, indicators)


def _run_mode(setup: dict, incremental: bool) -> dict:
    allocator = _build_allocator(incremental=incremental, **setup)
    t0 = time.perf_counter()
    plan, report = allocator.allocate()
    wall = time.perf_counter() - t0
    replayer = allocator.replayer
    return {
        "wall_seconds": wall,
        "plan": plan.to_dict(),
        "final_throughput": report.final_throughput,
        "recovery_attempts": report.recovery_attempts,
        "recovery_accepted": report.recovery_accepted,
        "recovery_full_rebuilds": report.recovery_full_rebuilds,
        "recovery_incremental_updates": report.recovery_incremental_updates,
        "simulate_calls": replayer.stats.simulate_calls,
        "full_rebuilds": replayer.full_rebuilds(),
        "incremental_updates": replayer.incremental_updates(),
    }


def run_bench(small: bool = False, path: str | Path = "BENCH_allocator.json") -> dict:
    """Run both modes, compare, and write the JSON report.  Returns it."""
    setup = SMALL_SETUP if small else FULL_SETUP
    full = _run_mode(setup, incremental=False)
    inc = _run_mode(setup, incremental=True)
    plans_identical = full.pop("plan") == inc.pop("plan")
    payload = {
        "setup": {**setup, "mode": "small" if small else "full"},
        "wall_seconds_full_rebuild": full["wall_seconds"],
        "wall_seconds_incremental": inc["wall_seconds"],
        "speedup": full["wall_seconds"] / max(inc["wall_seconds"], 1e-12),
        "plans_identical": plans_identical,
        "full_rebuild_mode": full,
        "incremental_mode": inc,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    small = "--small" in argv
    unknown = [a for a in argv if a.startswith("--") and a != "--small"]
    if unknown:
        print(f"unknown option(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            "usage: python -m benchmarks.bench_allocator_speed "
            "[--small] [output.json]",
            file=sys.stderr,
        )
        return 2
    paths = [a for a in argv if not a.startswith("--")]
    path = paths[0] if paths else (
        "BENCH_allocator_small.json" if small else "BENCH_allocator.json"
    )
    payload = run_bench(small=small, path=path)
    inc = payload["incremental_mode"]
    print(
        f"full-rebuild mode: {payload['wall_seconds_full_rebuild']:.3f}s, "
        f"incremental mode: {payload['wall_seconds_incremental']:.3f}s "
        f"-> {payload['speedup']:.1f}x speedup"
    )
    print(
        f"recovery loop: {inc['recovery_full_rebuilds']} full rebuilds, "
        f"{inc['recovery_incremental_updates']} delta updates, "
        f"plans identical: {payload['plans_identical']}"
    )
    print(f"wrote {path}")
    return 0 if payload["plans_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
