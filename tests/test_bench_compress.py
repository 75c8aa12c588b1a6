"""Tier-1 smoke invocation of the gradient-compression benchmark.

Runs ``benchmarks.bench_compress`` on its reduced grid so regressions in
the compression axis — the all-reduce cut collapsing below 2x on the
headline preset, the variance ledger escaping its budget, level 0 losing
bit-parity with plain ``qsync`` on any dispatch tier — fail loudly in the
normal test run.  The full-size benchmark (``python -m
benchmarks.bench_compress``) is the one that records the headline 16+16
numbers to ``BENCH_compress.json``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_compress import HEADLINE_PRESET, run_bench


def test_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_compress.json"
    payload = run_bench(small=True, path=out)

    # The headline invariant: >= 2x all-reduce cut on the 16+16 preset with
    # the added gradient-sync variance inside the 1% indicator-loss budget.
    assert payload["headline_ok"]
    headline = payload["presets"][HEADLINE_PRESET]
    assert headline["allreduce_speedup"] >= 2.0
    assert headline["within_budget"]
    assert headline["loss_increase_fraction"] <= payload["setup"]["loss_budget"]
    # Compression actually engaged: some bucket left level 0, and the
    # compressed iteration is no slower than the uncompressed one.
    assert any(lvl > 0 for lvl in headline["levels"])
    assert headline["iteration_speedup"] >= 1.0

    # Level-0 parity held on every dispatch tier (object/kernel/engine/
    # service): plan dicts and iteration_time bits identical to plain qsync.
    assert payload["level0_parity_everywhere"]
    tiers = {t["tier"] for t in payload["level0_parity"]}
    assert {"object", "kernel", "engine", "service"} <= tiers
    for tier in payload["level0_parity"]:
        assert tier["plan_equal"], tier["tier"]
        assert tier["iteration_bits_equal"], tier["tier"]

    # Every preset's report is budget-feasible (compression never escapes
    # its variance ledger, even where it chooses not to engage).
    for preset, entry in payload["presets"].items():
        assert entry["within_budget"], preset
        assert entry["compressed_allreduce_seconds"] <= (
            entry["baseline_allreduce_seconds"] + 1e-12
        ), preset

    # The artifact is valid JSON on disk with the headline fields.
    written = json.loads(out.read_text())
    assert written["headline_ok"] is True
    assert set(written["presets"]) == set(payload["presets"])
