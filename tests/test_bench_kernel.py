"""Tier-1 smoke invocation of the compiled-kernel benchmark.

Runs ``benchmarks.bench_kernel`` in its scaled-down mode so kernel-tier
regressions (parity drift, the batched sweep falling back to the object
path or losing its edge) fail loudly in the normal test run.  The
full-size benchmark (``python -m benchmarks.bench_kernel``) is the one
that reports the headline speedup to ``BENCH_kernel.json``; the smoke
gates parity strictly and speed loosely.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_kernel import run_bench


def test_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_kernel.json"
    payload = run_bench(small=True, path=out)

    # Parity is scale-independent and non-negotiable: the batched sweep
    # must be bit-identical to sequential apply -> simulate -> revert.
    assert payload["parity_batched"]

    # The speed floor stays modest at smoke scale (timer noise).
    assert payload["batched_whatif"]["speedup"] > 1.2
    assert payload["batched_whatif"]["candidates"] > 0

    # The artifact is valid JSON on disk with the headline fields.
    written = json.loads(out.read_text())
    assert written["parity_batched"] is True
    assert "checksums" in written
