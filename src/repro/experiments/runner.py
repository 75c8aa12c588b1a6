"""Command-line experiment sweep runner.

Expands the requested experiments into sweep cells (one per experiment x
model variant x protocol), executes them with the cache-aware
:class:`~repro.experiments.sweep.SweepRunner`, and prints each cell's
table.  Re-running a sweep replays cached cells from the artifact store
(``--out``, default ``.qsync-artifacts/``) and only recomputes cells whose
fingerprinted inputs changed.

Usage::

    python -m repro.experiments.runner table3
    python -m repro.experiments.runner all --jobs 4
    python -m repro.experiments.runner all --full --no-cache
    python -m repro.experiments.runner all --filter table2 --list
    python -m repro.experiments.runner fig6 --show-extras
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.artifacts import ArtifactStore
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.sweep import ScenarioGrid, SweepRunner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate QSync's tables and figures (cached, parallel).",
    )
    parser.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    protocol = parser.add_mutually_exclusive_group()
    protocol.add_argument(
        "--quick", action="store_true",
        help="quick protocol (default: fewer models/seeds/epochs)",
    )
    protocol.add_argument(
        "--full", action="store_true",
        help="full-scale protocol (more models/seeds/epochs; slow)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N cells in parallel worker processes (default 1)",
    )
    parser.add_argument(
        "--filter", default=None, metavar="SUBSTR",
        help="only run cells whose id contains SUBSTR (e.g. 'table2:BERT')",
    )
    parser.add_argument(
        "--out", default=".qsync-artifacts", metavar="DIR",
        help="artifact store directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell; neither read nor write the store",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_cells",
        help="print the expanded cells and their fingerprints, then exit",
    )
    parser.add_argument(
        "--show-extras", action="store_true",
        help="also print textual extras (timelines, traces)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for eid in ids:
        if eid not in EXPERIMENTS:
            parser.error(f"unknown experiment {eid!r}")

    grid = ScenarioGrid(ids, protocols=("full",) if args.full else ("quick",))
    cells = grid.cells(filter=args.filter)
    if not cells:
        parser.error(f"no cells match filter {args.filter!r}")

    if args.list_cells:
        for cell in cells:
            print(f"{cell.cell_id}  {cell.fingerprint()}")
        return 0

    store = None if args.no_cache else ArtifactStore(args.out)
    runner = SweepRunner(store=store, jobs=args.jobs)

    def _print_outcome(outcome) -> None:
        # Streamed as cells finish, so long sweeps show per-cell progress.
        if outcome.status == "failed":
            print(f"== {outcome.cell_id}: FAILED ==")
            print(outcome.error)
            return
        print(outcome.result.formatted())
        if args.show_extras:
            for key, value in outcome.result.extras.items():
                if isinstance(value, str):
                    print(f"\n--- extras[{key}] ---\n{value}")
        print(f"({outcome.elapsed:.1f}s, {outcome.status})\n", flush=True)

    report = runner.run(cells, on_outcome=_print_outcome)
    print(report.summary())
    return 0 if not report.failed else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
