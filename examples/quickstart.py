"""Quickstart: plan hybrid mixed-precision training for VGG16 on ClusterA.

Runs the full QSync workflow (profile -> indicator -> replay -> allocate)
through the session API: a declarative ``PlanRequest`` names the model,
cluster, and strategy; a ``PlanSession`` owns the profiled artifacts and
reuses them across what-if queries — the uniform-precision baseline below
re-profiles nothing.

Run:  python examples/quickstart.py

Before sending changes, run the invariant linter — it mechanically
enforces the repo's DESIGN contracts (stable keys, rank identity,
import layering, append-only registries; see CONTRIBUTING.md):

    PYTHONPATH=src python -m repro.analysis.lint src
"""

import dataclasses

from repro import PlanRequest, PlanService, PlanSession
from repro.hardware import make_cluster_a


def main() -> None:
    # The paper's training configuration: local batch 128, ImageNet shapes.
    # (Smaller batch here keeps the example snappy; bump to 128 for the
    # full-scale numbers.)  1 training server slice (V100) + 1 inference
    # GPU (T4); use make_cluster_a(16, 16) for the paper's full testbed.
    cluster = make_cluster_a(n_training=1, n_inference=1)
    request = PlanRequest(
        model="vgg16",
        model_kwargs={"batch_size": 32},
        cluster=cluster,
        loss="ce",
    )

    session = PlanSession()
    print(f"Planning on {cluster.describe()} ...")
    outcome = session.plan(request)  # strategy "qsync" — profiles once

    print()
    print(outcome.report.summary())
    print()
    plan = outcome.plan
    print("Precision plan for the T4 workers:")
    print(f"  {plan.summary()}")
    print()
    quantized = plan.quantized_ops("T4")
    print(f"{len(quantized)} operators kept below FP32:")
    for op in quantized[:10]:
        print(f"  {op}: {plan.for_device('T4')[op].value}")
    if len(quantized) > 10:
        print(f"  ... and {len(quantized) - 10} more")

    # What-if on the warm session: the uniform-precision baseline reuses
    # the catalogs and cast models profiled above (zero re-profiling).
    events_before = session.stats.profile_events
    up = session.plan(dataclasses.replace(request, strategy="uniform"))
    assert session.stats.profile_events == events_before
    print()
    print(
        f"Uniform-precision baseline (same session, 0 new profilings): "
        f"{up.simulation.iteration_time * 1e3:.1f} ms/iter vs QSync's "
        f"{outcome.simulation.iteration_time * 1e3:.1f} ms/iter"
    )

    # Joint axis: "qsync+qsgd" runs the same precision allocation, then
    # QSGD-compresses the gradient buckets wherever the all-reduce time
    # saved is worth the (budgeted) added sync variance.  Level 0 — no
    # bucket compressed — is bit-identical to plain "qsync".
    cp = session.plan(dataclasses.replace(request, strategy="qsync+qsgd"))
    print()
    print(f"With gradient compression: {cp.compression.summary()}")

    # Serving: wrap the warm session in a PlanService for thread-safe,
    # coalescing access — identical concurrent requests share one
    # computation, and batches dedupe identical requests.
    # (PlanService(root=...) instead persists profiles to disk, so a fresh
    # process warm-starts with zero profiling events.)
    service = PlanService(session=session)
    batch = service.plan_many([request, request, request])
    assert batch[0] is batch[1] is batch[2]  # one plan, shared outcome
    print()
    print(
        f"Served a 3-request batch as 1 plan "
        f"({service.stats.coalesced_requests} coalesced): "
        f"{service.describe()}"
    )


if __name__ == "__main__":
    main()
