"""Discrete-event engine vs the analytic Eq. (6) fast path.

Two invariants guard the engine refactor:

1. **Parity** — under the default ``DDPOverlapPolicy`` with no perturbation
   the engine's ``SimulationResult`` and its rendered timeline must be
   *bit-identical* to ``simulate_global_dfg``'s on the mini-BERT ClusterA
   setup; the analytic closed form is the oracle.
2. **Overhead** — the event queue may cost more than the closed form, but
   no more than 5x on that same setup (the allocator hot loop stays on the
   analytic path, so this bounds only the policy/perturbation surface).

Plus the straggler shape: with one rank slowed by a large factor, the
engine's iteration time must (a) equal the analytic recurrence replayed on
the *perturbed* DFGs bit-for-bit and (b) sit within a whisker of the
perturbed slowest rank's compute time — synchronous training tracks the
straggler.

Standalone: ``python -m benchmarks.bench_engine [--small] [output.json]``.
The tier-1 suite runs a scaled-down smoke invocation
(``tests/test_bench_engine.py``) so parity or shape regressions fail
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

from repro.core.dfg import GlobalDFG
from repro.core.replayer import simulate_global_dfg
from repro.engine import Perturbation
from repro.engine.core import run_engine
from repro.session import PlanRequest, PlanSession

MODEL_NAME = "mini_bert"
GRAPH_KW = {"batch_size": 8, "width_scale": 16, "spatial_scale": 8}
SMALL_GRAPH_KW = {**GRAPH_KW, "width_scale": 8, "spatial_scale": 4}
CLUSTER_PRESET = "cluster_a_4+4"
STRAGGLER_FACTOR = 50.0
#: Acceptance ceiling on engine-vs-analytic wall time.
MAX_OVERHEAD = 5.0


def _time_calls(fn, calls: int, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall time for ``calls`` invocations of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(small: bool = False, path: str | Path = "BENCH_engine.json") -> dict:
    """Measure parity/overhead/straggler shape, write the JSON report."""
    graph_kw = SMALL_GRAPH_KW if small else GRAPH_KW
    calls = 50 if small else 200
    ctx = PlanSession().prepare(
        PlanRequest(
            model=MODEL_NAME, model_kwargs=graph_kw, cluster=CLUSTER_PRESET,
            profile_repeats=1 if small else 2,
        )
    )
    replayer = ctx.replayer
    cluster = ctx.cluster
    gdfg = replayer.build_global_dfg()
    comm_model = replayer.collective_model

    # ---- parity: engine == analytic, timeline included ----------------
    analytic = simulate_global_dfg(gdfg, cluster, collective_model=comm_model)
    engine = run_engine(gdfg, cluster, collective_model=comm_model)
    parity = engine == analytic and engine.timeline == analytic.timeline

    # ---- overhead: bare recurrence vs bare event loop ------------------
    analytic_s = _time_calls(
        lambda: simulate_global_dfg(gdfg, cluster, collective_model=comm_model),
        calls,
    )
    engine_s = _time_calls(
        lambda: run_engine(gdfg, cluster, collective_model=comm_model), calls
    )
    overhead = engine_s / max(analytic_s, 1e-12)

    # ---- straggler shape -----------------------------------------------
    # Ranks are identities (possibly non-contiguous): select by rank value.
    straggler_rank = max(w.rank for w in cluster.workers)
    pert = Perturbation(seed=0, stragglers={straggler_rank: STRAGGLER_FACTOR})
    straggler = run_engine(gdfg, cluster, collective_model=comm_model,
                           perturbation=pert)
    perturbed_locals = [pert.perturb_local(ld) for ld in gdfg.locals]
    # Oracle: the analytic recurrence replayed on the perturbed DFGs (no
    # bandwidth drift, so the collective pricing is untouched).
    oracle = simulate_global_dfg(
        GlobalDFG(perturbed_locals), cluster, collective_model=comm_model
    )
    slowest_bound = max(ld.compute_time for ld in perturbed_locals)
    comm_total = sum(
        comm_model.allreduce_time(cluster, b.nbytes)
        for b in perturbed_locals[0].buckets
    )
    payload = {
        "setup": {
            "model": MODEL_NAME,
            "graph_kw": dict(graph_kw),
            "cluster": CLUSTER_PRESET,
            "mode": "small" if small else "full",
            "calls": calls,
            "nodes_per_rank": len(gdfg.locals[0].forward)
            + len(gdfg.locals[0].backward),
            "buckets": gdfg.n_buckets,
        },
        "parity": {
            "bit_identical": parity,
            "iteration_seconds": analytic.iteration_time,
            "timeline_events": len(analytic.timeline),
        },
        "overhead": {
            "analytic_seconds": analytic_s,
            "engine_seconds": engine_s,
            "engine_vs_analytic": overhead,
            "max_allowed": MAX_OVERHEAD,
            "within_budget": overhead <= MAX_OVERHEAD,
        },
        "straggler": {
            "rank": straggler_rank,
            "factor": STRAGGLER_FACTOR,
            "iteration_seconds": straggler.iteration_time,
            "slowest_rank_bound_seconds": slowest_bound,
            "comm_total_seconds": comm_total,
            "matches_perturbed_analytic": straggler == oracle,
            "tracks_slowest": (
                slowest_bound
                <= straggler.iteration_time
                <= slowest_bound + comm_total + 1e-12
            ),
        },
    }
    payload["ok"] = bool(
        payload["parity"]["bit_identical"]
        and payload["overhead"]["within_budget"]
        and payload["straggler"]["matches_perturbed_analytic"]
        and payload["straggler"]["tracks_slowest"]
    )
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    small = "--small" in argv
    unknown = [a for a in argv if a.startswith("--") and a != "--small"]
    if unknown:
        print(f"unknown option(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            "usage: python -m benchmarks.bench_engine [--small] [output.json]",
            file=sys.stderr,
        )
        return 2
    paths = [a for a in argv if not a.startswith("--")]
    path = paths[0] if paths else (
        "BENCH_engine_small.json" if small else "BENCH_engine.json"
    )
    payload = run_bench(small=small, path=path)
    print(
        f"parity: {'bit-identical' if payload['parity']['bit_identical'] else 'BROKEN'}; "
        f"overhead: {payload['overhead']['engine_vs_analytic']:.2f}x "
        f"(budget {MAX_OVERHEAD:.0f}x); "
        f"straggler x{STRAGGLER_FACTOR:g}: "
        f"{payload['straggler']['iteration_seconds'] * 1e3:.2f} ms vs bound "
        f"{payload['straggler']['slowest_rank_bound_seconds'] * 1e3:.2f} ms "
        f"({'tracks' if payload['straggler']['tracks_slowest'] else 'DOES NOT track'})"
    )
    print(f"wrote {path}")
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
