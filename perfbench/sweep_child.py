"""One fresh interpreter running the sweep_quick workload's sweep passes.

Started by ``workloads.SweepQuick`` so that every pass pays what a user's
``runner all --quick`` process pays (lazy imports such as fig8's
``scipy.stats`` included).  Runs uncached passes into empty artifact stores
until ``--seconds`` have passed and at least ``--min-passes`` ran (or
exactly ``--passes``), then one cached pass over the last store as the
oracle, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import shutil
import sys
import tempfile

from hostspeed import ScaledClock
from repro.common.rng import derive_seed
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.sweep import ScenarioGrid, SweepRunner
from repro.session import PlanSession
from spans import Tracer
from workloads import WORK_DIR, Quality, peak_rss_mb

#: Left out of the quick grid: about 90 s of the full quick sweep, and they
#: reuse the tensor/train stack fig8 already exercises.
EXCLUDED = ("table2", "table4", "table5", "table6")
TINY_CELLS = ("table1:quick", "compress:cloud_edge_4+2x2:quick")
#: Cells whose time is vectorised numpy (the tensor/train stack), scaled by
#: ``hostspeed.array_task``.  On a 2-vCPU host, fig8 scaled by the
#: interpreter-bound reference spread 23% (IQR/median over 150 s of
#: repeats), more than its raw time (8.5%), while planner cells spread
#: 28-31% raw and 10% scaled.
ARRAY_EXPERIMENTS = ("fig8",)


def grid_cells(grid_seed: int, tiny: bool):
    ids = [eid for eid in sorted(EXPERIMENTS) if eid not in EXCLUDED]
    cells = ScenarioGrid(ids, protocols=("quick",), seed=grid_seed).cells()
    return [c for c in cells if c.cell_id in TINY_CELLS] if tiny else cells


def result_checksum(result) -> str:
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextlib.contextmanager
def captured_plans(sink: list):
    """Record (request, plan, iteration seconds) of every ``PlanSession.plan``
    the sweep's experiments make, for the plan-quality metrics (replans are
    left out: churn cells draw their events from the grid seed)."""
    plan = PlanSession.plan

    def plan_and_record(self, request):
        outcome = plan(self, request)
        sink.append((request, outcome.plan, outcome.simulation.iteration_time))
        return outcome

    PlanSession.plan = plan_and_record
    try:
        yield sink
    finally:
        PlanSession.plan = plan


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    grid_seed = derive_seed(args.seed, "perfbench", "sweep_quick", "grid")
    cells = grid_cells(grid_seed, args.tiny)
    tracer = Tracer() if args.trace else None
    WORK_DIR.mkdir(exist_ok=True)
    plans: list = []
    pass_seconds: list[float] = []
    raw_pass_seconds: list[float] = []
    computed: list[tuple[str, str]] = []
    first_pass_plans = 0
    store_dir = None
    tracing = tracer.installed() if tracer else contextlib.nullcontext()
    with captured_plans(plans), tracing:
        while True:
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
            store_dir = tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR)
            runner = SweepRunner(store=ArtifactStore(store_dir), jobs=1)
            clock = ScaledClock(arrays=True)
            clock.start()
            if tracer is not None:
                # No reference samples between cells while tracing: they
                # would sit inside the entry span and count as uncovered.
                tracer.active = True
                report = runner.run(cells)
                tracer.active = False
            else:
                report = runner.run(cells, on_outcome=lambda outcome: clock.lap(
                    outcome.cell.experiment_id in ARRAY_EXPERIMENTS))
            clock.lap()
            pass_seconds.append(clock.scaled)
            raw_pass_seconds.append(clock.raw)
            for outcome in report.outcomes:
                if outcome.status == "computed":
                    digest_ = result_checksum(outcome.result)
                else:
                    digest_ = ""
                    print(f"cell {outcome.cell_id} {outcome.status}: {outcome.error}",
                          file=sys.stderr)
                computed.append((outcome.cell_id, outcome.status, digest_))
            if len(pass_seconds) == 1:
                first_pass_plans = len(plans)
            if args.passes is not None:
                if len(pass_seconds) >= args.passes:
                    break
            elif (len(pass_seconds) >= args.min_passes
                  and sum(raw_pass_seconds) >= args.seconds):
                break
    rss = peak_rss_mb()

    # Oracle: a cached pass must replay every cell, equal to the computed one.
    replay = SweepRunner(store=ArtifactStore(store_dir), jobs=1).run(cells)
    cached = {
        o.cell_id: (o.status, result_checksum(o.result) if o.status == "cached" else "")
        for o in replay.outcomes
    }
    shutil.rmtree(store_dir, ignore_errors=True)

    quality = Quality()
    payload = {
        "grid_seed": grid_seed,
        "pass_seconds": pass_seconds,
        "raw_pass_seconds": raw_pass_seconds,
        "cells_per_pass": len(cells),
        "cells": computed,
        "cached": cached,
        "rss_mb": rss,
        "quality": [
            (seconds, quality.loss(request, plan))
            for request, plan, seconds in plans[:first_pass_plans]
        ],
    }
    if tracer is not None:
        tracer.harvest_replayer()
        tracer.dump(WORK_DIR / f"trace-sweep_quick-seed{args.seed}.jsonl")
        payload.update(
            aggregates=tracer.aggregates, counters=tracer.counters,
            root_seconds=tracer.root_seconds, spans=len(tracer.spans),
        )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
