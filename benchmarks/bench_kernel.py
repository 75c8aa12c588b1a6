"""Compiled-kernel speed: batched what-if sweep vs sequential trials.

``Replayer.whatif_candidates`` evaluates a window of single-op precision
changes in one vectorized pass over the kernel's frozen arrays; this
benchmark times it against the sequential apply -> simulate -> revert
trial loop, the allocator's only recovery loop, on a mini-BERT ClusterA
setup.  The allocator no longer batches: an accept
discards the rest of its window, so the window scored about 6x the
candidates recovery used, and ``plan()`` ran faster without it.

``simulate()`` itself is no longer served by the kernel (it plays Eq. (6)
once per rank group), so there is no single-evaluation half; its parity
with the recurrence over every rank and with ``incremental=False`` is
pinned in ``tests/test_kernel.py``.

The speedup is only meaningful because it is *bit-identical*: the report
records a parity flag and ``float.hex`` checksums next to it, and the
tier-1 smoke (``tests/test_bench_kernel.py``) gates parity strictly while
keeping the speed floor modest at smoke scale.

Standalone: ``python -m benchmarks.bench_kernel [--small] [output.json]``.
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

from repro.common.dtypes import higher_precision
from repro.session import PlanRequest, PlanSession

MODEL_NAME = "mini_bert"
GRAPH_KW = {"batch_size": 8, "width_scale": 16, "spatial_scale": 8}
SMALL_GRAPH_KW = {**GRAPH_KW, "width_scale": 8, "spatial_scale": 4}
CLUSTER_PRESET = "cluster_a_4+4"


def _time_pair(fn_a, fn_b, calls: int, repeats: int = 5) -> tuple[float, float]:
    """Best-of-``repeats`` wall times for ``calls`` invocations of each of
    ``fn_a`` and ``fn_b``.  The repeats alternate between the two sides, so
    a burst of host load lands on both instead of skewing their ratio."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((fn_a, fn_b)):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def _candidate_list(replayer, limit):
    """Single-op precision changes on one training rank (the recovery
    loop's shape): promote where possible, else the widest demotion."""
    rank = min(replayer.dags)
    dag = replayer.dags[rank]
    out = []
    for op in dag.adjustable_ops():
        cur = dag.precision(op)
        supported = dag.spec(op).supported_precisions()
        nxt = higher_precision(cur)
        if nxt in supported:
            out.append((rank, op, nxt))
        else:
            demotions = [p for p in supported if p.bits < cur.bits]
            if demotions:
                out.append((rank, op, max(demotions, key=lambda p: p.bits)))
        if len(out) == limit:
            break
    return out


def _sequential_sweep(replayer, candidates):
    """The allocator's recovery trial: apply to every same-type rank,
    simulate, read memory, revert.  Returns (throughput, memory) rows."""
    by_rank = {w.rank: w.device.name for w in replayer.cluster.workers}
    rows = []
    for rank, op, target in candidates:
        ranks = [
            w.rank
            for w in replayer.cluster.workers
            if w.device.name == by_rank[rank]
        ]
        original = replayer.dags[rank].precision(op)
        for r in ranks:
            replayer.dags[r].set_precision(op, target)
        sim = replayer.simulate()
        mem = replayer.memory_estimate(rank).total
        for r in ranks:
            replayer.dags[r].set_precision(op, original)
        rows.append((sim.throughput, mem))
    return rows


def run_bench(small: bool = False, path: str | Path = "BENCH_kernel.json") -> dict:
    """Measure parity + speedup of the batched what-if sweep, write the
    report."""
    graph_kw = SMALL_GRAPH_KW if small else GRAPH_KW
    n_cands = 16 if small else 64
    ctx = PlanSession().prepare(
        PlanRequest(
            model=MODEL_NAME, model_kwargs=graph_kw, cluster=CLUSTER_PRESET,
            profile_repeats=1 if small else 2,
        )
    )
    replayer = ctx.replayer

    base = replayer.simulate()

    # ---- batched what-if sweep vs sequential trials ---------------------
    candidates = _candidate_list(replayer, n_cands)
    batched = replayer.whatif_candidates(candidates)
    sequential = _sequential_sweep(replayer, candidates)
    parity_batched = batched is not None and all(
        b[0] == s[0] and b[1] == s[1] for b, s in zip(batched, sequential)
    ) and len(batched) == len(sequential)

    t_batched, t_sequential = _time_pair(
        lambda: replayer.whatif_candidates(candidates),
        lambda: _sequential_sweep(replayer, candidates),
        1,
    )
    batch_speedup = (
        t_sequential / t_batched if t_batched > 0 else float("inf")
    )

    payload = {
        "model": MODEL_NAME,
        "graph_kw": graph_kw,
        "cluster": CLUSTER_PRESET,
        "parity_batched": parity_batched,
        "batched_whatif": {
            "candidates": len(candidates),
            "batched_seconds": t_batched,
            "sequential_seconds": t_sequential,
            "speedup": batch_speedup,
        },
        "checksums": {
            "iteration_time": base.iteration_time.hex(),
            "whatif_throughputs": [t.hex() for t, _ in (batched or [])],
            "whatif_memory": [m for _, m in (batched or [])],
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def main(argv: list[str]) -> int:
    small = "--small" in argv
    args = [a for a in argv if a != "--small"]
    path = args[0] if args else "BENCH_kernel.json"
    payload = run_bench(small=small, path=path)
    print(
        f"parity: batched={payload['parity_batched']}\n"
        f"batched what-if speedup: "
        f"{payload['batched_whatif']['speedup']:.1f}x -> {path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
