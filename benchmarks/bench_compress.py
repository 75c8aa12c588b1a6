"""QSGD gradient compression: all-reduce cut vs indicator-loss cost.

QSync's plans historically synchronized gradients at full FP32, so on the
multi-node presets the all-reduce term dominates the iteration.  This
benchmark plans every preset twice — plain ``qsync`` under the
hierarchical collective, and ``qsync+qsgd`` under the compressed
multi-hop collective with a 1% indicator-loss budget — and writes the
all-reduce totals, iteration times, chosen per-bucket levels, and the
variance ledger to ``BENCH_compress.json``.  The headline invariant, on
the 16+16 preset (``cluster_a_2x8+2x8``): the compressed all-reduce total
is >= 2x below the hierarchical-uncompressed one while the added
gradient-sync variance stays inside the budget.

A second invariant rides along: **level-0 parity**.  With the ladder
pinned to ``(0,)`` the ``qsync+qsgd`` strategy must be bit-identical to
plain ``qsync`` — same plan dict, same ``iteration_time`` bits — on every
dispatch tier (the analytic object path of an ``incremental=False``
replayer, the incremental fast path — tier label ``kernel``, now the
grouped Eq. (6) recurrence —, a named schedule policy, and the coalescing
service).

Standalone: ``python -m benchmarks.bench_compress [--small] [output.json]``.
The tier-1 suite runs a scaled-down smoke invocation
(``tests/test_bench_compress.py``) so compression regressions fail loudly.
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
from repro.experiments.comm import PRESETS, build_preset
from repro.experiments.compress import LOSS_BUDGET, compress_preset
from repro.quant.qsgd import CompressionConfig
from repro.service import PlanService
from repro.session import PlanRequest, PlanSession
from repro.session.planners import get_planner

#: The preset whose numbers are the headline (the paper's 16+16 cluster-A
#: shape: V100 training nodes + T4 inference nodes over 100G uplinks).
HEADLINE_PRESET = "cluster_a_2x8+2x8"


def _parity_tier(name: str, plan_fn, **request_kw) -> dict:
    """Plan qsync vs qsync+qsgd@levels=(0,) through one dispatch tier and
    compare bit-for-bit: the compression axis at level 0 must be invisible."""
    baseline = plan_fn(PlanRequest(strategy="qsync", **request_kw))
    pinned = plan_fn(
        PlanRequest(
            strategy="qsync+qsgd",
            compression=CompressionConfig(levels=(0,)),
            **request_kw,
        )
    )
    base_sim = baseline.report.final_simulation
    pin_sim = pinned.report.final_simulation
    return {
        "tier": name,
        "plan_equal": baseline.plan.to_dict() == pinned.plan.to_dict(),
        "iteration_bits_equal": (
            base_sim.iteration_time.hex() == pin_sim.iteration_time.hex()
        ),
        "iteration_seconds": base_sim.iteration_time,
    }


def _object_path_plan(session: PlanSession):
    """A ``plan`` function running each request on an ``incremental=False``
    replayer: no compiled kernel, sequential recovery — the reference."""
    def plan(request: PlanRequest):
        ctx = session.prepare(request)
        ctx.replayer.incremental = False
        return get_planner(request.strategy).plan(ctx)

    return plan


def level0_parity(quick: bool) -> list[dict]:
    """The four-tier level-0 parity matrix on the headline preset."""
    base = dict(
        model=MINI_BERT,
        model_kwargs=mini_bert_kw(quick),
        cluster=build_preset(HEADLINE_PRESET, quick=quick),
        collective_model="compressed_multihop",
        profile_repeats=1 if quick else 2,
    )
    tiers = []
    session = PlanSession()
    tiers.append(_parity_tier("object", _object_path_plan(session), **base))
    tiers.append(_parity_tier("kernel", session.plan, **base))
    tiers.append(
        _parity_tier(
            "engine", session.plan, schedule_policy="ddp_overlap", **base
        )
    )
    service = PlanService()
    tiers.append(_parity_tier("service", service.plan, **base))
    return tiers


def run_bench(small: bool = False, path: str | Path = "BENCH_compress.json") -> dict:
    """Benchmark every preset, write the JSON report, and return it."""
    session = PlanSession()
    presets = {}
    for preset in PRESETS:
        cluster = build_preset(preset, quick=small)
        t0 = time.perf_counter()
        stats = compress_preset(cluster, quick=small, session=session)
        presets[preset] = {
            "cluster": cluster.describe(),
            "workers": cluster.size,
            "nodes": cluster.n_nodes,
            "planning_seconds": time.perf_counter() - t0,
            **stats,
        }

    parity = level0_parity(quick=small)
    headline = presets[HEADLINE_PRESET]
    payload = {
        "setup": {
            "model": MINI_BERT,
            "graph_kw": dict(mini_bert_kw(small)),
            "mode": "small" if small else "full",
            "loss_budget": LOSS_BUDGET,
            "headline_preset": HEADLINE_PRESET,
        },
        "presets": presets,
        "level0_parity": parity,
        "level0_parity_everywhere": all(
            t["plan_equal"] and t["iteration_bits_equal"] for t in parity
        ),
        "headline_allreduce_speedup": headline["allreduce_speedup"],
        "headline_loss_increase_fraction": headline["loss_increase_fraction"],
        "headline_ok": (
            headline["allreduce_speedup"] >= 2.0
            and headline["within_budget"]
            and headline["loss_increase_fraction"] <= LOSS_BUDGET
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
            "usage: python -m benchmarks.bench_compress [--small] [output.json]",
            file=sys.stderr,
        )
        return 2
    paths = [a for a in argv if not a.startswith("--")]
    path = paths[0] if paths else (
        "BENCH_compress_small.json" if small else "BENCH_compress.json"
    )
    payload = run_bench(small=small, path=path)
    for preset, entry in payload["presets"].items():
        print(
            f"{preset} ({entry['workers']} ranks / {entry['nodes']} nodes): "
            f"allreduce {entry['baseline_allreduce_seconds'] * 1e3:.2f} ms "
            f"-> {entry['compressed_allreduce_seconds'] * 1e3:.2f} ms "
            f"({entry['allreduce_speedup']:.2f}x), iteration "
            f"{entry['iteration_speedup']:.2f}x, loss increase "
            f"{entry['loss_increase_fraction'] * 100:.4f}%"
        )
    print(
        "level-0 parity: "
        + ", ".join(
            f"{t['tier']}="
            + ("ok" if t["plan_equal"] and t["iteration_bits_equal"] else "FAIL")
            for t in payload["level0_parity"]
        )
    )
    print(f"wrote {path}")
    return 0 if payload["headline_ok"] and payload["level0_parity_everywhere"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
