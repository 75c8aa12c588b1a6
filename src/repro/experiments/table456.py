"""Tables IV, V, VI — end-to-end training: accuracy + throughput.

Each row trains the executable mini model under one method's plan (real
hybrid mixed-precision DDP) and pairs it with the Replayer's predicted
throughput at production scale — the protocol of
:mod:`repro.experiments.protocol`.
"""

from __future__ import annotations

from repro.core.allocator import AllocatorConfig
from repro.experiments.base import ExperimentResult, mean_std
from repro.experiments.protocol import (
    find_pressure_batch,
    prepare_methods,
    run_method_training,
)
from repro.hardware import T4, make_cluster_a, make_cluster_b
from repro.models import make_mini_model
from repro.session import PlanSession
from repro.train.data import make_image_classification, make_token_classification

#: ClusterB memory ratio used by the reproduction.  The paper uses 30 %;
#: our activation-memory anatomy compresses INT8 ~2.7x vs FP32 (the paper's
#: backend compresses harder), so the equivalent "INT8-fits-FP16-doesn't"
#: regime sits at ~42 % — recorded in CONTRIBUTING.md "Substitutions".
CLUSTER_B_RATIO = 0.42

#: display name -> graph/model catalog name per table, with the quick-mode
#: subset.  Single source of truth: the sweep engine's scenario axes
#: (``registry.SCENARIOS``) derive cache-key model sets from these, so
#: changing a table's model set here automatically re-keys its cached
#: artifacts.
TABLE4_MODELS = {
    "ResNet50": "mini_resnet", "VGG16": "mini_vgg", "VGG16BN": "mini_vggbn",
}
TABLE4_QUICK = ("VGG16BN",)
TABLE5_MODELS = {"ResNet50": "mini_resnet", "VGG16BN": "mini_vggbn"}
TABLE5_QUICK = ("VGG16BN",)
TABLE6_MODELS = {"BERT": "mini_bert", "RoBERTa": "mini_roberta"}
TABLE6_QUICK = ("BERT",)

_PAPER_TABLE4 = [
    ["ResNet50", "ORACLE", "76.93±0.20%", "—"],
    ["ResNet50", "DBS", "76.13±0.05%", "0.40"],
    ["ResNet50", "UP", "76.50±0.26%", "0.45"],
    ["ResNet50", "QSync", "76.77±0.43%", "0.45"],
    ["VGG16", "ORACLE", "70.43±0.06%", "—"],
    ["VGG16", "DBS", "69.83±0.15%", "0.17"],
    ["VGG16", "UP", "69.76±0.06%", "0.20"],
    ["VGG16", "QSync", "70.33±0.06%", "0.20"],
    ["VGG16BN", "ORACLE", "74.46±0.07%", "—"],
    ["VGG16BN", "DBS", "73.93±0.15%", "0.32"],
    ["VGG16BN", "UP", "73.80±0.10%", "0.38"],
    ["VGG16BN", "QSync", "74.77±0.12%", "0.38"],
]

_PAPER_TABLE5 = [
    ["ResNet50", "ORACLE", "76.93±0.20%", "—"],
    ["ResNet50", "DBS", "76.40±0.10%", "0.40"],
    ["ResNet50", "UP", "76.36±0.20%", "0.40"],
    ["ResNet50", "QSync", "76.67±0.59%", "0.45"],
    ["VGG16BN", "ORACLE", "74.46±0.07%", "—"],
    ["VGG16BN", "DBS", "73.93±0.15%", "0.32"],
    ["VGG16BN", "UP", "73.23±0.13%", "0.38"],
    ["VGG16BN", "QSync", "74.26±0.06%", "0.38"],
]

_PAPER_TABLE6 = [
    ["BERT", "ORACLE", "87.49±0.08%", "—"],
    ["BERT", "DBS", "87.52±0.20%", "1.68"],
    ["BERT", "UP", "87.28±0.28%", "1.78"],
    ["BERT", "QSync", "87.41±0.05%", "1.78"],
    ["RoBERTa", "ORACLE", "83.95±0.05%", "—"],
    ["RoBERTa", "DBS", "83.73±0.21%", "1.10"],
    ["RoBERTa", "UP", "83.46±0.09%", "1.34"],
    ["RoBERTa", "QSync", "83.59±0.11%", "1.34"],
]


def _run_table(
    experiment_id: str,
    title: str,
    model_map: dict[str, str],
    cluster_factory,
    paper,
    quick: bool,
    seeds: int | None,
    optimizer: str = "sgd",
    lr: float = 0.05,
    metric: str = "top1",
    kind: str = "image",
) -> ExperimentResult:
    seeds = seeds or (1 if quick else 3)
    epochs = 3 if quick else 6
    n_train = 768 if quick else 2048
    cluster = cluster_factory(2, 2) if not quick else cluster_factory(1, 1)

    # One session per table: cast-cost fits (per device type) are shared
    # across the table's models; catalogs are per model structure.
    session = PlanSession()
    rows = []
    for display, model_name in model_map.items():
        if kind == "image":
            dataset = make_image_classification(n_train=n_train, n_test=256, seed=3)
        else:
            vocab = make_mini_model(model_name).embed.table.shape[0]
            dataset = make_token_classification(
                n_train=n_train, n_test=256, vocab_size=vocab, seed=3
            )
        graph_batch = find_pressure_batch(model_name, T4.memory_bytes)
        methods = prepare_methods(
            model_name, cluster, graph_batch, exec_batch_per_worker=16,
            allocator_config=AllocatorConfig(max_recovery_steps=200 if quick else 10_000),
            session=session,
        )
        for name in ("ORACLE", "DBS", "UP", "QSync"):
            method = methods[name]
            accs = [
                run_method_training(
                    model_name, method, cluster, dataset, epochs=epochs,
                    seed=seed, optimizer=optimizer, lr=lr, metric=metric,
                )
                for seed in range(seeds)
            ]
            tp = "—" if method.throughput is None else f"{method.throughput:.2f}"
            rows.append([display, name, mean_std(accs), tp])

    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        headers=["Model", "Method", "Final Accuracy", "Throughput (it/s)"],
        rows=rows,
        paper=paper,
        notes=(
            "Shape to check — accuracy: ORACLE >= QSync >= UP, with DBS "
            "below QSync for from-scratch BN models; throughput: "
            "QSync ≈ UP > DBS.  Absolute it/s reflect the simulated "
            "substrate at production-scale shapes."
        ),
    )


def run_table4(quick: bool = True, seeds: int | None = None) -> ExperimentResult:
    return _run_table(
        "table4",
        "From-scratch training on ClusterA",
        TABLE4_MODELS
        if not quick
        else {d: TABLE4_MODELS[d] for d in TABLE4_QUICK},
        make_cluster_a,
        _PAPER_TABLE4,
        quick,
        seeds,
    )


def run_table5(quick: bool = True, seeds: int | None = None) -> ExperimentResult:
    def factory(t, i):
        return make_cluster_b(t, i, memory_ratio=CLUSTER_B_RATIO)

    return _run_table(
        "table5",
        f"From-scratch training on ClusterB (T4 memory x{CLUSTER_B_RATIO})",
        TABLE5_MODELS
        if not quick
        else {d: TABLE5_MODELS[d] for d in TABLE5_QUICK},
        factory,
        _PAPER_TABLE5,
        quick,
        seeds,
    )


def run_table6(quick: bool = True, seeds: int | None = None) -> ExperimentResult:
    return _run_table(
        "table6",
        "Fine-tuning tasks on ClusterA (transformers, Adam)",
        TABLE6_MODELS
        if not quick
        else {d: TABLE6_MODELS[d] for d in TABLE6_QUICK},
        make_cluster_a,
        _PAPER_TABLE6,
        quick,
        seeds,
        optimizer="adam",
        lr=2e-3,
        metric="f1",
        kind="token",
    )
