"""Tier-1 smoke invocation of the elastic re-planning benchmark.

Runs ``benchmarks.bench_churn`` in its scaled-down mode so incrementality
regressions — a replan silently re-profiling known device types, losing
its speed edge over a cold plan, or a zero-event replan diverging from the
original plan — fail loudly in the normal test run.  The full-size
benchmark (``python -m benchmarks.bench_churn``) reports the headline
numbers to ``BENCH_churn.json``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_churn import run_bench


def test_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_churn.json"
    payload = run_bench(small=True, path=out)
    assert out.exists()

    # A zero-event replan is the original plan, bit for bit, and costs no
    # profiling — the parity oracle.
    assert payload["zero_event_parity"]
    assert payload["zero_event_profile_events"] == 0

    # The deterministic core of the incrementality claim: re-planning
    # after a single-rank leave re-profiles nothing (every surviving
    # device type is already in the session's ProfileStore).
    assert payload["profile_events_cold"] > 0
    assert payload["replan_profile_events"] == 0

    # Reuse must not change results: the incremental replan matches a cold
    # plan of the same surviving cluster exactly.
    assert payload["replan_matches_cold_survivor"]

    # The headline: replan beats a cold plan on the survivors by >= 3x
    # (measured ~10-16x; 3x leaves room for CI noise, and the counters
    # above pin the mechanism).
    assert payload["speedup_replan"] >= 3.0
