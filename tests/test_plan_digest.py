"""Tier-1 smoke invocation of the bit-identity digest.

``python -m benchmarks.plan_digest`` prints one line per request of a
fixed set; a refactor diffs that output against its parent's.  The smoke
checks the set's shape: every cluster, strategy and run appears once, each
line carries its four digests, and the schedule and perturbation runs
move the iteration time, so a diff can see them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.plan_digest import CLUSTERS, RUNS, main
from repro.session import available_strategies


def test_digest_covers_the_fixed_set(capsys):
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {}
    for line in lines:
        cluster, strategy, run, *fields = line.split()
        assert [f.split("=")[0] for f in fields] == [
            "plan", "iter", "ranks", "timeline",
        ]
        rows[cluster, strategy, run] = dict(f.split("=") for f in fields)
    assert len(rows) == len(lines) == (
        len(CLUSTERS) * len(available_strategies()) * len(RUNS)
    )
    for cluster in CLUSTERS:
        for strategy in available_strategies():
            default = rows[cluster, strategy, "default"]["iter"]
            assert rows[cluster, strategy, "blocking_sync"]["iter"] != default
            assert rows[cluster, strategy, "perturbed"]["iter"] != default
