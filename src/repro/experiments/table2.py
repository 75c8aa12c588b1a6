"""Table II — indicator performance.

Protocol (Sec. VII-A1): pick which operators to quantize using each
indicator and compare the resulting *final accuracy* after real training:

* **ClusterA** — floating-point plans (FP16), QSync's variance indicator vs
  the Random indicator;
* **ClusterB** — fixed-point plans (INT8) at a fixed compression ratio
  (emulating "60 % maximum compression"), QSync vs the Hessian indicator.

Selection rule shared by every indicator: quantize the ``k`` ops with the
*smallest* sensitivity (keep the most sensitive ones high-precision), where
``k`` is fixed per trial so all indicators quantize the same number of ops.
Accuracy is measured by the hybrid DDP trainer (training GPUs FP32,
inference GPUs carrying the plan), ``seeds`` repetitions.
"""

from __future__ import annotations

from repro.baselines import HessianIndicator, RandomIndicator, hessian_top_eigenvalues
from repro.common.dtypes import Precision
from repro.common.rng import new_rng
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.experiments.base import ExperimentResult, mean_std
from repro.experiments.protocol import collect_executable_stats, run_method_training
from repro.experiments.protocol import MethodPlan
from repro.hardware import make_cluster_a
from repro.models import make_mini_model, mini_model_graph
from repro.tensor import Tensor, functional as F
from repro.train.data import make_image_classification, make_token_classification


MODELS = {
    "ResNet50": ("mini_resnet", "image", "sgd", 0.05, "top1"),
    "VGG16BN": ("mini_vggbn", "image", "sgd", 0.05, "top1"),
    "BERT": ("mini_bert", "token", "adam", 2e-3, "f1"),
    "RoBERTa": ("mini_roberta", "token", "adam", 2e-3, "f1"),
}

#: Two V100 training GPUs and two T4 inference GPUs.
CLUSTER = make_cluster_a(2, 2)


def _dataset(kind: str, model_name: str, quick: bool):
    n_train = 768 if quick else 2048
    if kind == "image":
        return make_image_classification(n_train=n_train, n_test=256, seed=3)
    vocab = make_mini_model(model_name).embed.table.shape[0]
    return make_token_classification(
        n_train=n_train, n_test=256, vocab_size=vocab, seed=3
    )


def _plan_from_indicator(indicator, ops: list[str], k: int, precision: Precision):
    """Quantize the k least-sensitive ops at ``precision``."""
    scored = sorted(ops, key=lambda op: indicator.omega(op, precision))
    return {op: precision for op in scored[:k]}


def _train_with_plan(model_name, plan, dataset, epochs, seed, optimizer, lr,
                     metric):
    """Training GPUs run FP32; the inference GPUs carry ``plan``."""
    plans = {w.rank: plan if w.is_inference else {} for w in CLUSTER.workers}
    method = MethodPlan("trial", plans, [16] * CLUSTER.size, None)
    return run_method_training(
        model_name, method, CLUSTER, dataset, epochs=epochs, seed=seed,
        optimizer=optimizer, lr=lr, metric=metric,
    )


def run(quick: bool = True, models: list[str] | None = None,
        seeds: int | None = None) -> ExperimentResult:
    seeds = seeds or (1 if quick else 3)
    epochs = 3 if quick else 6
    model_list = models or (["VGG16BN", "BERT"] if quick else list(MODELS))

    rows = []
    for display in model_list:
        model_name, kind, optimizer, lr, metric = MODELS[display]
        dag = mini_model_graph(model_name, batch_size=16)
        weighted = [op for op in dag.adjustable_ops() if dag.spec(op).has_weight]
        k = max(len(weighted) // 2, 1)
        stats = collect_executable_stats(model_name, iterations=10 if quick else 30)
        gamma = gamma_for_loss("ce", 16)
        qsync_ind = VarianceIndicator(dag, stats, gamma)
        dataset = _dataset(kind, model_name, quick)

        # ---- ClusterA: FP16 plans, QSync vs Random.
        rand_ind = RandomIndicator(weighted, seed=11)
        for method_name, indicator in (("QSync", qsync_ind), ("Random", rand_ind)):
            plan = _plan_from_indicator(indicator, weighted, k, Precision.FP16)
            accs = [
                _train_with_plan(model_name, plan, dataset, epochs, seed,
                                 optimizer, lr, metric)
                for seed in range(seeds)
            ]
            rows.append([display, "ClusterA", method_name, mean_std(accs)])

        # ---- ClusterB: INT8 plans at fixed compression, QSync vs Hessian.
        model = make_mini_model(model_name, seed=0)
        rng = new_rng(5)
        if kind == "image":
            xb = Tensor(rng.normal(size=(16, 3, 16, 16)))
            yb = rng.integers(0, 10, size=16)
        else:
            vocab = model.embed.table.shape[0]
            xb = rng.integers(0, vocab, size=(16, 16))
            yb = rng.integers(0, 4, size=16)
        eigs = hessian_top_eigenvalues(
            model, lambda m: F.cross_entropy(m(xb), yb),
            power_iters=3 if quick else 8, seed=0,
        )
        hess_ind = HessianIndicator(eigs, stats)
        for method_name, indicator in (("QSync", qsync_ind), ("Hess", hess_ind)):
            plan = _plan_from_indicator(indicator, weighted, k, Precision.INT8)
            accs = [
                _train_with_plan(model_name, plan, dataset, epochs, seed,
                                 optimizer, lr, metric)
                for seed in range(seeds)
            ]
            rows.append([display, "ClusterB", method_name, mean_std(accs)])

    return ExperimentResult(
        experiment_id="table2",
        title="Indicator performance (final accuracy under indicator-selected plans)",
        headers=["Model", "Cluster", "Method", "Final Accuracy"],
        rows=rows,
        paper=[
            ["ResNet50", "ClusterA", "QSync", "76.77±0.43%"],
            ["ResNet50", "ClusterA", "Random", "76.53±0.53%"],
            ["ResNet50", "ClusterB", "QSync", "76.67±0.59%"],
            ["ResNet50", "ClusterB", "Hess", "76.00±0.43%"],
            ["VGG16BN", "ClusterA", "QSync", "74.77±0.12%"],
            ["VGG16BN", "ClusterA", "Random", "74.12±0.88%"],
            ["VGG16BN", "ClusterB", "QSync", "74.27±0.06%"],
            ["VGG16BN", "ClusterB", "Hess", "73.36±0.63%"],
            ["BERT", "ClusterA", "QSync", "87.41±0.05%"],
            ["BERT", "ClusterA", "Random", "87.39±0.19%"],
            ["BERT", "ClusterB", "QSync", "87.44±0.20%"],
            ["BERT", "ClusterB", "Hess", "87.34±0.11%"],
            ["RoBERTa", "ClusterA", "QSync", "83.59±0.11%"],
            ["RoBERTa", "ClusterA", "Random", "83.61±0.15%"],
            ["RoBERTa", "ClusterB", "QSync", "82.94±0.12%"],
            ["RoBERTa", "ClusterB", "Hess", "82.71±0.31%"],
        ],
        notes=(
            "Shape to check: QSync's indicator >= baseline in most cells, "
            "with the clearest margins in ClusterB (fixed-point) where the "
            "Hessian sees only weight curvature — mirroring the paper's "
            "explanation of its ClusterB advantage.  Deltas are small on "
            "fine-tune-style tasks, as in the paper."
        ),
    )
