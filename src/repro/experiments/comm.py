"""Topology-aware collectives — flat ring vs hierarchical vs tree.

Not a paper table: this experiment quantifies what the flat single-
bottleneck ring model (the pre-topology default, kept for parity) leaves on
the table on multi-node clusters.  For each registered multi-node preset it
builds one Replayer and prices the same gradient buckets under every
collective model, reporting per-iteration latency and the pure all-reduce
share.  Sec. IV-B's observation — communication cost is topology-shaped —
is the reproduction target: hierarchical must beat flat wherever nodes have
fast intra fabrics, while flat stays exactly the legacy model.
"""

from __future__ import annotations

from repro.experiments.base import MINI_BERT, ExperimentResult, mini_bert_kw
from repro.hardware.cluster import (
    Cluster,
    make_cloud_edge_cluster,
    make_cluster_a_multinode,
    make_cluster_b_multinode,
)
from repro.parallel.comm_model import COLLECTIVE_MODELS
from repro.session import PlanRequest, PlanSession

#: Multi-node preset axis: CLUSTER_PRESETS names -> (builder, quick-protocol
#: shrink kwargs).  Quick keeps every preset genuinely multi-node (the
#: hierarchical-beats-flat shape must survive the shrink).
PRESET_BUILDERS = {
    "cluster_a_2x8+2x8": (make_cluster_a_multinode, dict(gpus_per_node=2)),
    "cluster_b_2x8+2x8": (make_cluster_b_multinode, dict(gpus_per_node=2)),
    "cloud_edge_4+2x2": (
        make_cloud_edge_cluster,
        dict(n_cloud_gpus=2, gpus_per_edge_node=1),
    ),
}
PRESETS = tuple(PRESET_BUILDERS)


def build_preset(name: str, quick: bool = True) -> Cluster:
    """Instantiate one preset at the protocol's scale."""
    builder, quick_kwargs = PRESET_BUILDERS[name]
    return builder(**quick_kwargs) if quick else builder()


def price_collectives(
    cluster: Cluster,
    quick: bool = True,
    session: PlanSession | None = None,
) -> tuple[dict[str, dict[str, float]], list]:
    """Price one cluster's gradient buckets under every collective model.

    The single measurement procedure shared by this experiment's rows and
    ``benchmarks.bench_comm``'s JSON payload (so the two can never drift):
    one Replayer per cluster, then per registered model a simulate plus the
    per-bucket all-reduce total.  Returns ``(per-model stats, buckets)``.
    Pass a shared ``session`` to reuse device-type catalogs across presets
    (V100/T4 repeat across the multi-node clusters).
    """
    ctx = (session or PlanSession()).prepare(
        PlanRequest(
            model=MINI_BERT, model_kwargs=mini_bert_kw(quick), cluster=cluster,
            profile_repeats=1 if quick else 2,
        )
    )
    replayer = ctx.replayer
    buckets = replayer.local_dfg(min(w.rank for w in cluster.workers)).buckets
    results: dict[str, dict[str, float]] = {}
    for name, model_cls in COLLECTIVE_MODELS.items():
        model = model_cls()
        replayer.collective_model = model
        sim = replayer.simulate()
        results[name] = {
            "iteration_seconds": sim.iteration_time,
            "allreduce_seconds": sum(
                model.allreduce_time(cluster, b.nbytes) for b in buckets
            ),
            "max_comm_wait_seconds": max(sim.comm_wait_time.values()),
        }
    return results, buckets


def run(
    quick: bool = True, presets: tuple[str, ...] | None = None
) -> ExperimentResult:
    presets = PRESETS if presets is None else tuple(presets)

    session = PlanSession()  # shared: device types repeat across presets
    rows = []
    extras: dict[str, object] = {}
    for preset in presets:
        cluster = build_preset(preset, quick=quick)
        models, buckets = price_collectives(cluster, quick=quick, session=session)
        flat_ms = models["flat"]["iteration_seconds"] * 1e3
        for model_name, stats in models.items():
            iteration_ms = stats["iteration_seconds"] * 1e3
            rows.append([
                preset,
                model_name,
                f"{stats['allreduce_seconds'] * 1e3:.3f}",
                f"{iteration_ms:.3f}",
                f"{flat_ms / iteration_ms:.2f}x",
            ])
        extras[preset] = {
            "workers": cluster.size,
            "nodes": cluster.n_nodes,
            "buckets": len(buckets),
            "grad_bytes": sum(b.nbytes for b in buckets),
        }

    return ExperimentResult(
        experiment_id="comm",
        title="Collective cost models across multi-node presets",
        headers=["Preset", "Collective", "Allreduce (ms)", "Iter (ms)", "vs flat"],
        rows=rows,
        notes=(
            "flat = legacy single-bottleneck ring (the parity default); "
            "hierarchical = intra-node reduce-scatter, inter-node ring, "
            "intra-node all-gather; tree = binomial reduce+broadcast.  The "
            "shape to check: hierarchical strictly below flat on every "
            "multi-node preset (fast intra fabrics absorb 2(m-1)/m of the "
            "traffic), tree competitive only at high latency / small "
            "buffers."
        ),
        extras=extras,
    )
