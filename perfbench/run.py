"""The repo benchmark: what a QSync planning user waits for, and where it goes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload whatif_warm --seed 1 --seconds 3 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the same workload twice on the same seed — untraced,
then traced for the same number of cycles — and reports the per-layer
metrics of the traced pass, its span coverage of the timed wall time, and
the tracing overhead (traced minus untraced timed wall time).  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable report (environment,
stream and outcome digests, tail percentile and sample count,
``failed_ratio``).  ``perfbench/smoke.py`` is the benchmark's own test.

Load shape
----------
Every workload is a closed loop with one client in one process (the sweep
runs in one child interpreter), driven by a request stream generated from
``--seed`` through ``repro.common.rng.derive_seed``; the seed also picks the
profiling-noise seed (``PlanSession(profile_seed=...)``) and, on
sweep_quick, the grid seed.  A run is whole cycles (see ``workloads.py``),
repeated until ``--seconds`` of timed wall time; each cycle holds every
request kind of its workload, so the latency mix is the same in every run.
Every cycle outlasts the 3 s ``run_seconds`` of ``BENCHMARK.json``, so on
a 2-CPU x86 host a run is exactly one cycle: 32 timed calls on
whatif_warm (about 20 s), 64 on cold_start (about 14 s), 27 on
serve_churn (about 8 s); on sweep_quick two sweep passes (about 20 s).

Host-speed scaling
------------------
A shared host's speed drifts by up to 2x within minutes and between sets
of runs, in CPU time as much as in wall time.  Every timed call is
therefore bracketed by a fixed reference task outside the program, and
every time metric below is the wall time scaled to the reference speed
(``hostspeed.py``): what the call takes on a host that runs the reference
task in ``hostspeed.REFERENCE_S``.  A program change moves the calls, not
the reference, so it shows in full; host drift slows both and cancels.
The report prints the raw wall times and the host speed beside them.
On sweep_quick the reference is sampled between cells, and fig8's cell,
vectorised numpy that does not slow with the interpreter, is scaled by a
second, array-bound reference task instead.
BLAS is limited to one thread (in the children too): a two-thread
OpenBLAS pool next to a busy neighbour core stalls far beyond what the
single-threaded reference task sees.

Workloads, and why each exists
------------------------------
``whatif_warm``
    One warm ``PlanSession`` (every model x device-type pair profiled in
    set-up) answering two seeded shuffles of allocator-backed what-ifs on
    the 32-rank ``cluster_a_2x8+2x8``, each with the flat and the
    ``hierarchical`` collective model: ``qsync``, ``qsync+qsgd``,
    ``hessian`` and ``random`` for mini_bert (batch 8, width 16, spatial 8,
    the ROADMAP baseline) and resnet50.  Allocator and replayer do nearly
    all the work, profiling none: ``memory_estimate`` ->
    ``CostMapper.refresh`` and ``apply_plan`` repeated per rank.  ROADMAP
    items 2 and 3 show here or nowhere.
``cold_start``
    A fresh ``PlanSession`` per request, two seeded shuffles of every
    kind a cycle: ``uniform`` and ``dpro`` over
    vgg16, resnet50 (batch 256), bert (batch 64) and mini_bert
    on ``cluster_a_4+4`` and ``cloud_edge_4+2x2`` with ``profile_repeats``
    2 and 3.  At those batch sizes FP32 overflows a T4, so ``uniform`` walks
    its precision ladder and the plans carry an indicator loss.  Profiling
    (catalog, cast fit, stats, template build) dominates and the allocator
    never runs, so items 2 and 3 predict no change here; any profiling or
    backend gain shows here.
``serve_churn``
    One ``PlanService`` on a ``PersistentProfileStore`` in an empty root:
    ``plan_many`` batches of six requests, a third of them duplicates,
    dealt from seeded shuffles of the twelve kinds (``qsync``, ``uniform``,
    ``qsync+qsgd`` on mini_bert/mini_vgg over ``cloud_edge_4+2x2`` and
    ``cluster_a_4+4``; every kind three times a cycle), two ``replan`` calls per
    batch after seeded leave/join/degrade events on ``cloud_edge_4+2x2``,
    and one mid-run restart onto the same root (memory empty, disk warm).
    Disk writes then reads, coalescing, replan's adopted caches, and
    degrade perturbations routing ``simulate`` through the engine; bounded
    caches (item 5) show up here as memory saved or hits lost.
``sweep_quick``
    The ``--quick`` grid minus table2/table4/table5/table6 (17 cells) by
    ``SweepRunner(jobs=1)`` in a fresh interpreter into an empty
    ``ArtifactStore``, so fig8's lazy ``scipy.stats`` import is paid as a
    user pays it.  The only workload running ``experiments``, the artifact
    store, the ``tensor``/``train`` stack (fig8), ``GroundTruthSimulator``
    (table3) and ``simulate_with_churn``.

End-to-end metrics (``--trace 0``, every workload)
--------------------------------------------------
``latency_p50_ms``
    Median (Harrell-Davis estimate, see ``quantile``) scaled wall time per
    timed call (``plan``, ``plan_many``, ``replan``,
    ``SweepRunner.run``).  On sweep_quick a run is two uncached passes, so
    this is the mean wall time of the uncached sweep (``sweep_cold_s``), in
    ms.
``latency_tail_ms``
    The highest percentile with at least ten samples beyond it (the median
    when a run has 20 samples or fewer), estimated the same way; the
    report names it and n: p68.8
    of 32 on whatif_warm, p84.4 of 64 on cold_start, p63.0 of 27 on
    serve_churn.  A
    sweep_quick run (two passes) is too short for a tail, so there it
    equals ``latency_p50_ms``.
``throughput_rps``
    Requests completed / scaled timed wall time; a ``plan_many`` call
    counts each of its requests, a sweep pass each of its cells.
``setup_s``
    Median fresh-interpreter import time of the workload's modules (five
    interpreters; the imports scaled by the reference speed each child
    measures on its own core, start-up and exit raw) plus the median of
    three scaled in-process set-ups (the warm session's profiling on
    whatif_warm; an empty service on serve_churn).  Oracle work is
    excluded.
``peak_rss_mb``
    Peak RSS of the process running the workload (the sweep child on
    sweep_quick), read when timing ends, before any oracle runs; each
    repeated set-up frees the previous one first.
``plan_throughput_ips``
    Predicted training throughput of the plans: distinct planned requests
    of the first cycle / the sum of their predicted ``iteration_time``
    (replans excluded, their requests follow the seeded event chain; on
    sweep_quick, the plans its experiments make through
    ``PlanSession.plan``).  The throughput side of plan quality.
``plan_indicator_loss``
    Mean over the same plans of the summed
    ``VarianceIndicator.omega(op, precision)`` of their precision plans —
    the paper's objective, compression variance excluded: the accuracy
    side.  Both plan metrics depend only on the seed, so a faster-but-worse
    allocator fails the no-regression rule.
Failures (an exception, an oracle mismatch, a failed sweep cell) are the
JSON ``failed`` count of timed calls; ``failed_ratio`` (failed / attempted
calls) is printed in the report, since a metric that is always 0 cannot be
bounded as a share of its median.

Correctness oracles (outside the timed region)
----------------------------------------------
Every served outcome's checksum (plan dict + ``iteration_time.hex()``) is
compared with a direct cold ``PlanSession`` of the same request (for a
replan, the same pre-churn request and events), computed after the last
timed call; a sweep must compute every cell (a failed cell is not stored,
so its cached replay fails again) and its cached pass must replay every
cell equal to the computed result.
``outcome_digest`` digests the first cycle's checksums: equal digests on
two commits mean bit-identical plans.

Per-layer metrics (``--trace 1``) and what they should move
-----------------------------------------------------------
``busy_s`` is self time (span time minus child spans); ``calls`` counts.
Layers are measured from outside by wrapping public functions
(``spans.PROBES``); the allocator's private phases wait for an in-program
trace, with ``memory_estimate``/``apply_plan``/``whatif`` counts standing
in.  Metrics of layers a workload does not exercise read 0.

- ``session.prepare.{calls,busy_s}``, ``session.self_s`` -> latency_p50_ms
  on whatif_warm (per-rank DAG copies) and cold_start.
- ``graph.build_template.busy_s`` -> cold_start; ``graph.dag_copy.{calls,
  busy_s}``, ``graph.set_precision.calls`` -> whatif_warm (items 2a, 2b).
- ``profiling.catalog.{calls,busy_s}``, ``profiling.cast_fit.busy_s``,
  ``profiling.stats.busy_s`` -> cold_start latency (and setup_s on
  whatif_warm); ``profiling.catalog.hit_ratio``,
  ``profiling.persist.{encode_s,decode_s}`` -> serve_churn throughput_rps;
  ``profiling.memory_model.{calls,busy_s}`` -> whatif_warm.
- ``backend.measure.{calls,busy_s}`` -> cold_start.
- ``core.allocate.{calls,busy_s}``, ``core.recovery.{attempts,
  accept_ratio}``, ``core.replayer.{simulate,memory_estimate,whatif}.
  {calls,busy_s}``, ``core.replayer.apply_plan.calls``,
  ``core.replayer.kernel_sims``, ``core.cost_mapper.refresh.{calls,busy_s}``,
  ``core.cost_mapper.{full_rebuilds,incremental_updates}`` -> whatif_warm;
  ``core.compression.{busy_s,accept_ratio}`` -> the qsync+qsgd share of
  whatif_warm and serve_churn.
- ``kernel.{evaluate,simulate_batch,compile}.{calls,busy_s}`` ->
  whatif_warm: item 3 predicts deleting this tier leaves latency_p50_ms
  unchanged; a loss would show here.
- ``engine.execute.{calls,busy_s}`` -> serve_churn latency and sweep_quick;
  ``engine.churn.busy_s`` -> sweep_quick.
- ``baselines.{uniform,dpro}.busy_s`` -> cold_start;
  ``baselines.ground_truth.busy_s`` -> sweep_quick.
- ``hardware.apply_events.busy_s`` -> serve_churn.
- ``service.{plan_many,replan}.busy_s``, ``service.self_s``,
  ``service.fingerprint.busy_s``, ``service.coalesced_ratio``,
  ``service.disk_hit_ratio`` -> serve_churn throughput_rps.
- ``experiments.cell.<experiment>.busy_s``,
  ``experiments.{fingerprint,artifact_save,artifact_load}.busy_s``,
  ``tensor.backward.{calls,busy_s}``, ``train.step.busy_s`` -> sweep_quick.
- ``trace.coverage``: the share of the timed wall time the layer probes
  explain, 1 - (time outside any span + self time of the entry-point
  spans ``spans.ENTRY_SPANS``) / timed wall time; must be >= 0.95.
- ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import sys
from pathlib import Path

# One BLAS thread, here and in every child: the load is one thread, and a
# busy neighbour core cannot stall a spinning thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the thread limits above

ROOT = Path(__file__).resolve().parent.parent
LOAD_AT_START = os.getloadavg()[0]


def git_head() -> str | None:
    """HEAD commit read from ``.git`` in the checkout, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_head": git_head(),
        "loadavg_1m_at_start": LOAD_AT_START,
    }


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a beta-weighted mean of
    all order statistics.  Call latencies cluster by request kind, and a
    plain order statistic that falls between two clusters jumps from one to
    the other from run to run; this estimate moves smoothly instead."""
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(quantile, value) of the highest percentile with >= 10 samples
    beyond it; the median when there are 20 samples or fewer."""
    n = len(latencies)
    rank = n - 10  # 1-based: exactly ten samples lie beyond this one
    q = 0.5 if rank <= n / 2 else rank / n
    return q, quantile(latencies, q)


def end_to_end(result, import_s: float) -> dict:
    """The end-to-end metrics of an untraced pass, host-speed scaled."""
    lat = result.latencies
    _, tail_value = tail(lat)
    iteration_s = sum(q[0] for q in result.quality)
    losses = [q[1] for q in result.quality]
    return {
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "throughput_rps": (result.requests / sum(lat), "req/s"),
        "setup_s": (import_s + result.setup_s, "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "plan_throughput_ips": (len(result.quality) / iteration_s, "it/s"),
        "plan_indicator_loss": (statistics.fmean(losses), "1"),
    }


def digest(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def report(workload, result, label: str) -> None:
    q, value = tail(result.latencies)
    n = len(result.latencies)
    print(f"[{label}] {workload.name} seed={workload.seed}: {result.cycles} cycle(s), "
          f"{n} calls, {result.requests} requests, "
          f"timed {sum(result.latencies):.3f} s")
    print(f"[{label}] stream_digest={digest(result.stream)} "
          f"outcome_digest={digest(result.outcomes)}")
    print(f"[{label}] latency_tail = p{q * 100:.1f} of n={n}: {value * 1e3:.3f} ms")
    raw = result.raw_latencies
    print(f"[{label}] raw wall time: p50 {quantile(raw, 0.5) * 1e3:.3f} ms, "
          f"tail {tail(raw)[1] * 1e3:.3f} ms, "
          f"{result.requests / sum(raw):.4g} req/s, set-up {result.raw_setup_s:.3f} s; "
          f"host speed {sum(result.latencies) / sum(raw):.3f} x reference; "
          f"oracles and plan quality {result.extra.get('oracle_s', 0.0):.1f} s")
    print(f"[{label}] latencies_ms sorted: "
          f"{[round(x * 1e3, 1) for x in sorted(result.latencies)]}")
    print(f"[{label}] failed_ratio = {len(result.failed_ops)}/{n} = "
          f"{len(result.failed_ops) / n:.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few request kinds per workload (smoke test)")
    args = parser.parse_args(argv)

    # The program under test is the checkout's own source tree, never an
    # installed copy.
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from spans import Tracer, layer_metrics
    from workloads import WORK_DIR, WORKLOADS, import_seconds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    print("env " + json.dumps(environment(), sort_keys=True))

    base = workload.run_pass(args.seconds)
    report(workload, base, "untraced")
    attempted = len(base.latencies)
    failed = len(base.failed_ops)
    correct = failed == 0
    if args.trace == 0:
        raw_import_s, import_s = import_seconds(workload.modules)
        print(f"[untraced] import: {import_s:.3f} s scaled, {raw_import_s:.3f} s raw")
        metrics = end_to_end(base, import_s)
    else:
        tracer = Tracer()
        with tracer.installed():
            traced = workload.run_pass(args.seconds, cycles=base.cycles, tracer=tracer)
        report(workload, traced, "traced")
        WORK_DIR.mkdir(exist_ok=True)
        tracer.dump(WORK_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl")
        attempted += len(traced.latencies)
        failed += len(traced.failed_ops)
        metrics = layer_metrics(
            tracer, traced.extra.get("session_stats", []),
            traced_s=sum(traced.raw_latencies), untraced_s=sum(base.raw_latencies),
        )
        coverage = metrics["trace.coverage"][0]
        print(f"[traced] span coverage {coverage:.4f}, overhead "
              f"{metrics['trace.overhead_s'][0]:+.3f} s over "
              f"{sum(base.raw_latencies):.3f} s untraced, "
              f"{len(tracer.spans) + tracer.child_spans} spans")
        correct = failed == 0 and coverage >= 0.95

    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
