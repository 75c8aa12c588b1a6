"""Plan-serving benchmark: coalescing throughput, tail latency, warm starts.

The serving layer's pitch (PR 9) is threefold, and each claim is measured
directly:

* **coalescing** — N concurrent identical requests cost ~one plan: the
  service's plans/sec under identical concurrent traffic is >= 5x the
  per-request cold-session rate (the deterministic mechanism — one
  computation, shared outcome — is pinned by counters, not just timing).
  The ratio is taken between the medians of alternating cold plans and
  coalesced bursts, each burst on a fresh cold-disk service with its
  clients started first and released together, so neither a slow first
  plan nor thread start-up lands in one side only;
* **tail latency** — mixed warm traffic (what-if strategies, seeds,
  replans) reports p50/p99 per-request latency.  The bound "p99 below
  one cold plan" is asserted at smoke scale only: at full size 32
  concurrent warm requests queue behind the service's ``_plan_lock``, so
  the mixed p99 can exceed one cold plan (the committed
  ``BENCH_service.json`` reads 160.8 ms against 149.8 ms);
* **persistence** — a cold *process* on a warm disk root re-profiles
  nothing (zero catalog/cast/stats computations, by counter) and produces
  bit-identical outcomes.

Writes throughputs, latency percentiles, counters, and the parity flag to
``BENCH_service.json``.

Standalone: ``python -m benchmarks.bench_service [--small] [output.json]``.
The tier-1 suite runs the scaled-down smoke (``tests/test_bench_service.py``)
asserting the >= 5x coalesced throughput floor, the zero-reprofiling warm
start, the p99 bound (which holds at that scale only), and bit-parity with
the direct session.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.hardware import make_cluster_a
from repro.service import PlanService
from repro.session import PlanRequest, PlanSession

FULL_SETUP = dict(
    model="mini_bert", batch=8, width_scale=8, spatial_scale=4,
    n_training=2, n_inference=2, profile_repeats=3,
    identical_clients=16, mixed_rounds=8,
)
#: Scaled down for the tier-1 smoke test.
SMALL_SETUP = dict(
    model="mini_vgg", batch=4, width_scale=None, spatial_scale=None,
    n_training=1, n_inference=1, profile_repeats=1,
    identical_clients=8, mixed_rounds=3,
)

#: Alternating (cold plan, coalesced burst) pairs behind the throughput ratio.
RATIO_PAIRS = 5

#: Warm mixed-traffic axes: same hardware, different question each time.
MIXED_OVERRIDES = (
    dict(strategy="uniform"),
    dict(strategy="dpro"),
    dict(seed=1),
    dict(collective_model="hierarchical"),
)


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _canon(outcome) -> tuple[str, str]:
    return (
        json.dumps(outcome.plan.to_dict(), sort_keys=True),
        outcome.simulation.iteration_time.hex(),
    )


def _base_request(setup: dict) -> PlanRequest:
    kwargs = {"batch_size": setup["batch"]}
    if setup["width_scale"] is not None:
        kwargs["width_scale"] = setup["width_scale"]
        kwargs["spatial_scale"] = setup["spatial_scale"]
    return PlanRequest(
        model=setup["model"],
        model_kwargs=kwargs,
        cluster=make_cluster_a(setup["n_training"], setup["n_inference"]),
        profile_repeats=setup["profile_repeats"],
    )


def _serve_concurrently(service, requests):
    """Serve every request on its own thread, all started first and then
    released together; returns (wall seconds from the release, per-request
    latencies, outcomes)."""
    latencies = [0.0] * len(requests)
    outcomes = [None] * len(requests)
    release = threading.Barrier(len(requests) + 1)

    def client(i):
        release.wait()
        t0 = time.perf_counter()
        outcomes[i] = service.plan(requests[i])
        latencies[i] = time.perf_counter() - t0

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(len(requests))
    ]
    for t in threads:
        t.start()
    release.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, latencies, outcomes


def run_bench(small: bool = False, path: str | Path = "BENCH_service.json") -> dict:
    setup = SMALL_SETUP if small else FULL_SETUP
    base = _base_request(setup)

    n = setup["identical_clients"]
    with tempfile.TemporaryDirectory() as tmp:
        # Cold baseline (a fresh session pays full profiling per request:
        # what naive per-client serving gets) alternating with coalesced
        # identical traffic on a fresh cold-disk service.
        cold_samples, burst_samples = [], []
        parity = True
        for i in range(RATIO_PAIRS):
            t0 = time.perf_counter()
            cold_outcome = PlanSession().plan(base)
            cold_samples.append(time.perf_counter() - t0)
            root = str(Path(tmp) / f"burst{i}")
            service = PlanService(root=root)
            wall, _, outcomes = _serve_concurrently(service, [base] * n)
            burst_samples.append(wall)
            parity = parity and all(
                _canon(o) == _canon(cold_outcome) for o in outcomes
            )
        cold_probe_seconds = statistics.median(cold_samples)
        cold_rate = 1.0 / cold_probe_seconds
        wall = statistics.median(burst_samples)
        coalesced_rate = n / wall
        coalesced = service.stats.coalesced_requests
        profile_events_identical = service.stats.profile_events

        # --- mixed warm traffic: what-if strategies/seeds + churn replans.
        mixed_requests = [
            dataclasses.replace(base, **overrides)
            for overrides in MIXED_OVERRIDES
        ] * setup["mixed_rounds"]
        mixed_wall, mixed_latencies, _ = _serve_concurrently(
            service, mixed_requests
        )
        replay_t0 = time.perf_counter()
        replan = service.replan(service.session.last_context, [])
        mixed_latencies.append(time.perf_counter() - replay_t0)
        mixed_rate = (len(mixed_requests) + 1) / (
            mixed_wall + mixed_latencies[-1]
        )

        # --- warm disk, cold process: a new service on the same root.
        t0 = time.perf_counter()
        restarted = PlanService(root=root)
        restart_outcome = restarted.plan(base)
        warm_start_seconds = time.perf_counter() - t0
        restart_stats = restarted.stats
        warm_profilings = (
            restart_stats.catalog_profiles
            + restart_stats.cast_fits
            + restart_stats.stats_syntheses
        )
        parity = parity and _canon(restart_outcome) == _canon(cold_outcome)

        payload = {
            "setup": dict(setup),
            "cold_probe_seconds": cold_probe_seconds,
            "cold_plans_per_second": cold_rate,
            "coalesced": {
                "clients": n,
                "pairs": RATIO_PAIRS,
                "wall_seconds": wall,
                "plans_per_second": coalesced_rate,
                "throughput_ratio": coalesced_rate / cold_rate,
                "coalesced_requests": coalesced,
                "profile_events": profile_events_identical,
            },
            "mixed": {
                "requests": len(mixed_requests) + 1,
                "plans_per_second": mixed_rate,
                "p50_seconds": _percentile(mixed_latencies, 0.50),
                "p99_seconds": _percentile(mixed_latencies, 0.99),
                "replan_new_profile_events": replan.new_profile_events,
            },
            "warm_start": {
                "seconds": warm_start_seconds,
                "profilings": warm_profilings,
                "disk_hits": restart_stats.disk_hits,
                "disk_misses": restart_stats.disk_misses,
            },
            "parity": parity,
            "service_stats": dataclasses.asdict(service.stats),
        }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(
        f"cold: {cold_rate:.2f} plans/s | coalesced x{n}: "
        f"{coalesced_rate:.2f} plans/s ({payload['coalesced']['throughput_ratio']:.1f}x) | "
        f"mixed p50/p99: {payload['mixed']['p50_seconds'] * 1e3:.1f}/"
        f"{payload['mixed']['p99_seconds'] * 1e3:.1f} ms | "
        f"warm-start profilings: {warm_profilings} | parity: {parity}"
    )
    return payload


if __name__ == "__main__":
    args = [a for a in sys.argv[1:]]
    small = "--small" in args
    paths = [a for a in args if not a.startswith("--")]
    run_bench(small=small, path=paths[0] if paths else "BENCH_service.json")
