"""Collective cost models: flat ring vs hierarchical vs tree per preset.

The flat single-bottleneck ring (the parity default) prices every collective
by the slowest NIC, so the multi-node presets' NVLink/PCIe intra fabrics are
invisible to it.  This benchmark builds one Replayer per multi-node cluster
preset, prices the same gradient buckets under every registered collective
model, and writes per-preset iteration times, all-reduce totals, and an
analytic buffer-size sweep to ``BENCH_comm.json``.  The headline invariant:
on every multi-node preset the hierarchical model's all-reduce total is
strictly lower than the flat ring's.

Standalone: ``python -m benchmarks.bench_comm [--small] [output.json]``.
The tier-1 suite runs a scaled-down smoke invocation
(``tests/test_bench_comm.py``) so topology/collective regressions fail
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

from repro.experiments.base import MINI_BERT, mini_bert_kw
from repro.experiments.comm import (
    PRESETS,
    build_preset,
    price_collectives,
)
from repro.parallel.comm_model import COLLECTIVE_MODELS

#: Analytic buffer-size sweep (bytes): DDP's 25 MB bucket cap bracketed by a
#: latency-dominated and a bandwidth-dominated size.
BUFFER_SIZES = (1 * 1024**2, 25 * 1024**2, 100 * 1024**2)


def _bench_preset(preset: str, quick: bool) -> dict:
    cluster = build_preset(preset, quick=quick)
    t0 = time.perf_counter()
    # The same pricing procedure as the `comm` experiment's rows — shared so
    # the table and this benchmark can never drift apart.
    models, buckets = price_collectives(cluster, quick=quick)
    priced_seconds = time.perf_counter() - t0
    for name, model_cls in COLLECTIVE_MODELS.items():
        models[name]["allreduce_by_buffer"] = {
            str(n): model_cls().allreduce_time(cluster, n) for n in BUFFER_SIZES
        }

    flat = models["flat"]
    hier = models["hierarchical"]
    return {
        "cluster": cluster.describe(),
        "workers": cluster.size,
        "nodes": cluster.n_nodes,
        "topology": cluster.topology.describe(),
        "buckets": len(buckets),
        "grad_bytes": sum(b.nbytes for b in buckets),
        "pricing_seconds": priced_seconds,
        "models": models,
        "hierarchical_vs_flat_allreduce_speedup": (
            flat["allreduce_seconds"] / max(hier["allreduce_seconds"], 1e-12)
        ),
        "hierarchical_vs_flat_iteration_speedup": (
            flat["iteration_seconds"] / max(hier["iteration_seconds"], 1e-12)
        ),
        "hierarchical_below_flat": (
            hier["allreduce_seconds"] < flat["allreduce_seconds"]
        ),
    }


def run_bench(small: bool = False, path: str | Path = "BENCH_comm.json") -> dict:
    """Benchmark every preset, write the JSON report, and return it."""
    presets = {p: _bench_preset(p, quick=small) for p in PRESETS}
    payload = {
        "setup": {
            "model": MINI_BERT,
            "graph_kw": dict(mini_bert_kw(small)),
            "mode": "small" if small else "full",
            "collective_models": sorted(COLLECTIVE_MODELS),
            "buffer_sizes": list(BUFFER_SIZES),
        },
        "presets": presets,
        "hierarchical_below_flat_everywhere": all(
            entry["hierarchical_below_flat"] for entry in presets.values()
        ),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    small = "--small" in argv
    unknown = [a for a in argv if a.startswith("--") and a != "--small"]
    if unknown:
        print(f"unknown option(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            "usage: python -m benchmarks.bench_comm [--small] [output.json]",
            file=sys.stderr,
        )
        return 2
    paths = [a for a in argv if not a.startswith("--")]
    path = paths[0] if paths else (
        "BENCH_comm_small.json" if small else "BENCH_comm.json"
    )
    payload = run_bench(small=small, path=path)
    for preset, entry in payload["presets"].items():
        print(
            f"{preset} ({entry['workers']} ranks / {entry['nodes']} nodes): "
            f"allreduce flat {entry['models']['flat']['allreduce_seconds'] * 1e3:.2f} ms "
            f"-> hierarchical "
            f"{entry['models']['hierarchical']['allreduce_seconds'] * 1e3:.2f} ms "
            f"({entry['hierarchical_vs_flat_allreduce_speedup']:.2f}x), "
            f"iteration {entry['hierarchical_vs_flat_iteration_speedup']:.2f}x"
        )
    print(f"wrote {path}")
    return 0 if payload["hierarchical_below_flat_everywhere"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
