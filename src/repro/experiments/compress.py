"""Joint precision + gradient-compression planning — the ``compress`` sweep.

Not a paper table: this experiment quantifies what QSGD gradient
compression adds *on top of* QSync's precision allocation on the
multi-node presets.  For each preset it plans twice with one shared
session: plain ``qsync`` under the hierarchical collective (the
uncompressed reference) and ``qsync+qsgd`` under the compressed multi-hop
collective, which climbs the per-bucket compression ladder inside a
variance budget of :data:`LOSS_BUDGET` times the precision plan's own
indicator loss.  The reproduction target: on comm-bound multi-node
presets the all-reduce total drops by >= 2x while the added gradient-sync
variance stays inside the budget — and an empty ladder (level 0 only)
stays bit-identical to plain ``qsync``.
"""

from __future__ import annotations

from repro.experiments.base import MINI_BERT, ExperimentResult, mini_bert_kw
from repro.experiments.comm import PRESETS, build_preset
from repro.hardware.cluster import Cluster
from repro.quant.qsgd import CompressionConfig
from repro.session import PlanRequest, PlanSession

#: Variance budget as a fraction of the precision plan's indicator loss —
#: the sweep's headline constraint ("<= 1% loss increase").  Scenario axes
#: fingerprint this, so retuning it re-keys cached artifacts.
LOSS_BUDGET = 0.01


def compress_preset(
    cluster: Cluster,
    quick: bool = True,
    session: PlanSession | None = None,
) -> dict:
    """Plan one preset uncompressed and compressed, return the comparison.

    The single measurement procedure shared by this experiment's rows and
    ``benchmarks.bench_compress``'s JSON payload (so the two can never
    drift): one session, a ``qsync``/hierarchical reference plan, then a
    ``qsync+qsgd``/compressed-multi-hop plan whose
    :class:`~repro.core.compression.CompressionReport` carries the
    all-reduce totals and the variance ledger.
    """
    session = session or PlanSession()
    base = dict(
        model=MINI_BERT,
        model_kwargs=mini_bert_kw(quick),
        cluster=cluster,
        profile_repeats=1 if quick else 2,
    )
    baseline = session.plan(
        PlanRequest(strategy="qsync", collective_model="hierarchical", **base)
    )
    compressed = session.plan(
        PlanRequest(
            strategy="qsync+qsgd",
            collective_model="compressed_multihop",
            compression=CompressionConfig(loss_budget=LOSS_BUDGET),
            **base,
        )
    )
    creport = compressed.compression
    assert creport is not None  # qsync+qsgd always attaches its report
    base_iter = baseline.report.final_simulation.iteration_time
    comp_iter = compressed.report.final_simulation.iteration_time
    # The budget is LOSS_BUDGET * base_loss, so the realized indicator-loss
    # increase is added/budget * LOSS_BUDGET (0 when the budget is empty).
    base_loss = creport.variance_budget / LOSS_BUDGET
    loss_increase = creport.added_variance / base_loss if base_loss > 0 else 0.0
    return {
        "levels": list(creport.levels),
        "baseline_allreduce_seconds": creport.base_allreduce_seconds,
        "compressed_allreduce_seconds": creport.compressed_allreduce_seconds,
        "allreduce_speedup": creport.allreduce_speedup,
        "baseline_iteration_seconds": base_iter,
        "compressed_iteration_seconds": comp_iter,
        "iteration_speedup": base_iter / max(comp_iter, 1e-12),
        "added_variance": creport.added_variance,
        "variance_budget": creport.variance_budget,
        "loss_increase_fraction": loss_increase,
        "within_budget": creport.added_variance <= creport.variance_budget,
    }


def run(
    quick: bool = True, presets: tuple[str, ...] | None = None
) -> ExperimentResult:
    presets = PRESETS if presets is None else tuple(presets)

    session = PlanSession()  # shared: device types repeat across presets
    rows = []
    extras: dict[str, object] = {}
    for preset in presets:
        cluster = build_preset(preset, quick=quick)
        stats = compress_preset(cluster, quick=quick, session=session)
        rows.append([
            preset,
            "".join(f"L{lvl}" for lvl in stats["levels"]),
            f"{stats['baseline_allreduce_seconds'] * 1e3:.3f}",
            f"{stats['compressed_allreduce_seconds'] * 1e3:.3f}",
            f"{stats['allreduce_speedup']:.2f}x",
            f"{stats['iteration_speedup']:.2f}x",
            f"{stats['loss_increase_fraction'] * 100:.4f}%",
        ])
        extras[preset] = {
            "workers": cluster.size,
            "nodes": cluster.n_nodes,
            **stats,
        }

    return ExperimentResult(
        experiment_id="compress",
        title="QSGD gradient compression on top of precision plans",
        headers=[
            "Preset",
            "Levels",
            "Allreduce FP32 (ms)",
            "Allreduce QSGD (ms)",
            "Allreduce cut",
            "Iter speedup",
            "Loss increase",
        ],
        rows=rows,
        notes=(
            "Baseline = qsync under the hierarchical collective; compressed "
            "= qsync+qsgd under the compressed multi-hop collective with a "
            f"{LOSS_BUDGET:.0%} indicator-loss budget.  The shape to check: "
            "a >= 2x all-reduce cut on comm-bound multi-node presets with "
            "the loss increase inside the budget; an empty ladder stays "
            "bit-identical to plain qsync."
        ),
        extras=extras,
    )
