"""Experiment registry, scenario axes, and the single-experiment runner."""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.experiments import (
    churn,
    comm,
    compress,
    fig4,
    fig6,
    fig7,
    fig8,
    straggler,
    table1,
    table2,
    table3,
    table456,
)
from repro.experiments.base import (
    MINI_BERT,
    MINI_BERT_KW,
    MINI_BERT_QUICK_KW,
    ExperimentResult,
)
from repro.experiments.table456 import run_table4, run_table5, run_table6

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "fig4": fig4.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "comm": comm.run,
    "straggler": straggler.run,
    "churn": churn.run,
    "compress": compress.run,
}


@dataclasses.dataclass(frozen=True)
class Variant:
    """One expansion of an experiment along its model axis.

    ``kwargs`` (a tuple of key/value pairs, kept hashable so cells can be
    cached and pickled) are forwarded to the experiment's ``run`` — e.g.
    table2 takes ``models=("VGG16BN",)`` to evaluate one model per cell.
    """

    label: str = ""
    models: tuple[str, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()


@dataclasses.dataclass(frozen=True)
class ScenarioAxes:
    """Code-independent coordinates of one experiment's evaluation grid.

    ``cluster`` names the hardware preset the experiment evaluates on (it
    participates in sweep-cell fingerprints, so renaming a preset or
    changing which preset an experiment uses invalidates its cached
    artifacts).  ``models`` are graph-catalog names whose structure
    fingerprints anchor the cache key.  ``quick``/``full`` optionally
    override the variant list per protocol; by default there is a single
    anonymous variant covering :attr:`models`.
    """

    cluster: str
    models: tuple[str, ...] = ()
    quick: tuple[Variant, ...] | None = None
    full: tuple[Variant, ...] | None = None
    #: Extra code-independent configuration (graph scales, builder kwargs)
    #: fingerprinted into every cell of this experiment.  Populate it from
    #: constants the experiment itself reads, so a parameter edit re-keys
    #: the cached artifacts that depend on it.
    config: tuple = ()

    def variants(self, protocol: str) -> tuple[Variant, ...]:
        if protocol not in ("quick", "full"):
            raise ValueError(f"unknown protocol {protocol!r}")
        chosen = self.quick if protocol == "quick" else self.full
        if chosen is None:
            return (Variant("", self.models),)
        return chosen


def _table2_variants(displays: tuple[str, ...]) -> tuple[Variant, ...]:
    return tuple(
        Variant(display, (table2.MODELS[display][0],), (("models", (display,)),))
        for display in displays
    )


def _scale_config(models) -> tuple:
    """Production-graph scale settings for ``models``, as fingerprint input."""
    from repro.experiments.protocol import GRAPH_SCALE

    return tuple(
        (name, tuple(sorted(GRAPH_SCALE[name].items())))
        for name in sorted(set(models))
    )


#: Both protocols' :data:`~repro.experiments.base.MINI_BERT` graph kwargs,
#: as fingerprint input of every experiment that prices that mirror.
_MINI_BERT_CONFIG = (
    tuple(sorted(MINI_BERT_KW.items())),
    tuple(sorted(MINI_BERT_QUICK_KW.items())),
)


def _preset_variants() -> tuple[Variant, ...]:
    """One mini_bert cell per multi-node preset, the name in its kwargs."""
    return tuple(
        Variant(preset, (MINI_BERT,), (("presets", (preset,)),))
        for preset in comm.PRESETS
    )


def _table_axes(cluster: str, models: dict[str, str], quick: tuple[str, ...]) -> ScenarioAxes:
    return ScenarioAxes(
        cluster=cluster,
        quick=(Variant("", tuple(models[d] for d in quick)),),
        full=(Variant("", tuple(models.values())),),
        config=_scale_config(models.values()),
    )


#: Scenario axes per experiment — the grid the sweep engine expands.  Model
#: sets are derived from the experiment modules' own declarations (the
#: single source of truth), so changing which models an experiment
#: evaluates automatically re-keys its cached artifacts.
SCENARIOS: dict[str, ScenarioAxes] = {
    "table1": ScenarioAxes(cluster="device-registry:T4+V100+A10+A100"),
    "table2": ScenarioAxes(
        cluster="hybrid4:2xV100+2xT4",
        quick=_table2_variants(("VGG16BN", "BERT")),
        full=_table2_variants(tuple(table2.MODELS)),
        # Per-model training config (kind, optimizer, lr, metric) — edits
        # to table2.MODELS re-key the cached artifacts that read them.
        config=tuple(sorted(table2.MODELS.items())),
    ),
    "table3": ScenarioAxes(
        cluster="2xT4@32GBps",
        models=(table3.MODEL_NAME,),
        config=tuple(sorted(table3.GRAPH_KW.items())),
    ),
    "table4": _table_axes(
        "ClusterA", table456.TABLE4_MODELS, table456.TABLE4_QUICK
    ),
    "table5": _table_axes(
        f"ClusterB@x{table456.CLUSTER_B_RATIO}",
        table456.TABLE5_MODELS,
        table456.TABLE5_QUICK,
    ),
    "table6": _table_axes(
        "ClusterA", table456.TABLE6_MODELS, table456.TABLE6_QUICK
    ),
    "fig4": ScenarioAxes(cluster="T4"),
    "fig6": ScenarioAxes(
        cluster="ClusterA(1+1|2+2)",
        models=(fig6.MODEL_NAME,),
        config=_scale_config((fig6.MODEL_NAME,)),
    ),
    # fig7b sums per-op costs over the full-scale ResNet50 graph.
    "fig7": ScenarioAxes(cluster="T4+A10", models=(fig7.GRAPH_MODEL,)),
    "fig8": ScenarioAxes(
        cluster="single-device",
        models=tuple(model for _, model, _ in fig8.TRACE_CONFIGS),
    ),
    # One cell per multi-node cluster preset: the preset name rides in the
    # variant kwargs, so each preset is an independent sweep axis whose
    # cached artifacts re-key when the preset list or graph config changes.
    # Straggler/drift scenarios (perturbed Eq. (6) inputs): the factor
    # ladder and policy list are read from the experiment module itself, so
    # edits re-key cached artifacts; the derived cell seed rides in (run
    # takes a ``seed`` kwarg) because the perturbations consume it.
    "straggler": ScenarioAxes(
        cluster=straggler.CLUSTER_PRESET,
        models=(MINI_BERT,),
        config=(
            *_MINI_BERT_CONFIG,
            straggler.FACTORS,
            straggler.COMPUTE_JITTER,
            straggler.BANDWIDTH_DRIFT,
        ),
    ),
    # Elastic-membership churn on the cloud-edge preset: one cell per trace
    # (the trace name rides in the variant kwargs), with the quorum and
    # iteration budgets fingerprinted from the experiment module; the cell
    # seed rides in (run takes a ``seed`` kwarg) because the trace
    # generators consume it.
    "churn": ScenarioAxes(
        cluster=churn.CLUSTER_PRESET,
        quick=tuple(
            Variant(trace, (MINI_BERT,), (("traces", (trace,)),))
            for trace in churn.TRACES
        ),
        full=tuple(
            Variant(trace, (MINI_BERT,), (("traces", (trace,)),))
            for trace in churn.TRACES
        ),
        config=(
            *_MINI_BERT_CONFIG,
            churn.ITERATIONS,
            churn.FULL_ITERATIONS,
            churn.QUORUM,
        ),
    ),
    "comm": ScenarioAxes(
        cluster="multinode:" + "+".join(comm.PRESETS),
        quick=_preset_variants(),
        full=_preset_variants(),
        config=_MINI_BERT_CONFIG,
    ),
    # QSGD compression on the same multi-node preset axis as `comm` (one
    # cell per preset, the preset name riding in the variant kwargs); the
    # loss budget is fingerprinted from the experiment module, so retuning
    # it re-keys cached cells.
    "compress": ScenarioAxes(
        cluster="multinode:" + "+".join(comm.PRESETS),
        quick=_preset_variants(),
        full=_preset_variants(),
        config=(*_MINI_BERT_CONFIG, compress.LOSS_BUDGET),
    ),
}


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]


def run_experiment(experiment_id: str, quick: bool = True, **kwargs) -> ExperimentResult:
    """Run one experiment and return its result (printing is the caller's
    job; see ``examples/`` and ``benchmarks/``)."""
    return get_experiment(experiment_id)(quick=quick, **kwargs)
