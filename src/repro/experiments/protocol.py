"""Shared end-to-end protocol for Tables IV/V/VI.

Splits each method's evaluation across the reproduction's two fidelity axes
(CONTRIBUTING.md "Substitutions"):

* **throughput** — predicted by the Replayer on the production-scale graph
  mirror (realistic shapes, datasheet-calibrated devices);
* **accuracy** — measured by really training the executable mini model under
  the method's precision plan / batch-size split, with the plan transferred
  from the graph by operator name.

Methods: ORACLE (all-FP32), DBS (FP32 + speed-proportional local batches),
UP (uniform lowest-fitting precision on inference GPUs), QSYNC (allocator
plan).
"""

from __future__ import annotations

import dataclasses

from repro.baselines import dbs_batch_sizes
from repro.common.dtypes import Precision
from repro.core.allocator import AllocatorConfig
from repro.hardware.cluster import Cluster
from repro.models import make_mini_model, mini_model_graph
from repro.parallel import DataParallelTrainer, WorkerConfig
from repro.profiling import MemoryModel, collect_model_stats
from repro.session import PlanRequest, PlanSession
from repro.tensor import functional as F
from repro.train import SGD, Adam, Dataset, forward_batch

#: Production-scale graph settings per mini model (shapes reach the regime
#: where the paper's memory/throughput pressures are active).
GRAPH_SCALE: dict[str, dict] = {
    "mini_vgg": dict(width_scale=16, spatial_scale=4),
    "mini_vggbn": dict(width_scale=16, spatial_scale=4),
    "mini_resnet": dict(width_scale=24, spatial_scale=4),
    "mini_bert": dict(width_scale=24, spatial_scale=8),
    "mini_roberta": dict(width_scale=24, spatial_scale=8),
}


#: :func:`find_pressure_batch`'s ladder: first rung and the batch returned
#: when no rung exceeds the device.
PRESSURE_BATCH_START = 64
PRESSURE_BATCH_CAP = 4096


def find_pressure_batch(model_name: str, device_memory: int) -> int:
    """Smallest batch (on a ~1.2x ladder, 32-aligned) whose FP32 footprint
    exceeds ``device_memory`` — the hybrid-training regime where the
    inference GPU cannot hold the training GPU's configuration at full
    precision, while lower precisions still fit.  The fine ladder matters:
    overshooting would push even INT8 past ClusterB's cap."""
    mm = MemoryModel()
    batch = PRESSURE_BATCH_START
    while batch <= PRESSURE_BATCH_CAP:
        dag = mini_model_graph(model_name, batch_size=batch, **GRAPH_SCALE[model_name])
        if mm.estimate(dag).total > device_memory:
            return batch
        batch = int(-(-batch * 1.2 // 32) * 32)  # ceil to a multiple of 32
    return PRESSURE_BATCH_CAP


@dataclasses.dataclass
class MethodPlan:
    """Everything a method needs to be trained and timed."""

    name: str
    #: Per-rank precision plans for the executable model (module paths).
    plans: dict[int, dict[str, Precision]]
    #: Local batch sizes for the executable run, in cluster worker order.
    batch_sizes: list[int]
    #: Predicted iterations/second at production scale.
    throughput: float | None


def prepare_methods(
    model_name: str,
    cluster: Cluster,
    graph_batch: int,
    exec_batch_per_worker: int,
    allocator_config: AllocatorConfig | None = None,
    session: PlanSession | None = None,
) -> dict[str, MethodPlan]:
    """Build ORACLE/DBS/UP/QSYNC plans + predicted throughputs.

    UP and QSYNC run as planner strategies on one :class:`PlanSession`
    (pass a shared ``session`` to amortize profiling across tables); the
    FP32 baseline replayer for ORACLE/DBS comes from the same session's
    context, so the whole method set profiles each device type once.
    Indicator statistics come from :func:`collect_executable_stats` under
    cross-entropy loss.
    """
    scale = GRAPH_SCALE[model_name]
    session = session or PlanSession()
    stats = collect_executable_stats(model_name)
    # gamma uses the executable local batch (the accuracy axis), not the
    # production graph batch — hence the explicit batch_size.
    request = PlanRequest(
        model=model_name,
        model_kwargs=dict(batch_size=graph_batch, **scale),
        cluster=cluster,
        batch_size=exec_batch_per_worker,
        stats=stats,
        config=allocator_config,
        profile_repeats=2,
    )
    ctx = session.prepare(request)
    template, replayer = ctx.template, ctx.replayer
    k = cluster.size
    uniform_batches = [exec_batch_per_worker] * k

    # ---- ORACLE: all FP32 everywhere (throughput not defined in-paper).
    oracle = MethodPlan("ORACLE", {w.rank: {} for w in cluster.workers},
                        uniform_batches, None)
    fp32_sim = replayer.simulate()

    # ---- DBS: FP32, local batches proportional to per-sample speed.
    per_sample = [
        fp32_sim.per_device_compute[w.rank] / graph_batch for w in cluster.workers
    ]
    global_exec = exec_batch_per_worker * k
    dbs_batches = dbs_batch_sizes(global_exec, per_sample)
    # Predicted iteration: balanced compute + the FP32 collective tail.
    dbs_graph_batches = dbs_batch_sizes(graph_batch * k, per_sample)
    dbs_compute = max(
        t * b for t, b in zip(per_sample, dbs_graph_batches)
    )
    comm = sum(
        replayer.collective_model.allreduce_time(cluster, b.nbytes)
        for b in replayer.local_dfg(min(w.rank for w in cluster.workers)).buckets
    )
    dbs_iter = dbs_compute + comm
    dbs = MethodPlan("DBS", {w.rank: {} for w in cluster.workers},
                     dbs_batches, 1.0 / dbs_iter)

    methods = {"ORACLE": oracle, "DBS": dbs}
    # ---- UP: uniform lowest-fitting precision on inference workers;
    # ---- QSYNC: the allocator's quantization-minimized plan.
    for name, strategy in (("UP", "uniform"), ("QSync", "qsync")):
        out = session.plan(dataclasses.replace(request, strategy=strategy))
        plans = {
            w.rank: (
                _weighted_only(template, out.plan.for_device(w.device.name))
                if w.is_inference
                else {}
            )
            for w in cluster.workers
        }
        methods[name] = MethodPlan(
            name, plans, uniform_batches, out.simulation.throughput
        )
    return methods


def _weighted_only(dag, graph_plan: dict[str, Precision]) -> dict[str, Precision]:
    """Keep only weighted adjustable ops (installable module paths)."""
    return {
        op: prec
        for op, prec in graph_plan.items()
        if dag.spec(op).has_weight and prec is not Precision.FP32
    }


def collect_executable_stats(model_name: str, iterations: int = 20):
    """Profile indicator statistics on the executable mini model (the paper's
    first-50-iterations running mean, at reduced batch)."""
    from repro.common import new_rng
    from repro.train.data import make_image_classification, make_token_classification

    model = make_mini_model(model_name, seed=0)
    rng = new_rng(1234)
    if model_name.startswith(("mini_bert", "mini_roberta")):
        vocab = model.embed.table.shape[0]
        ds = make_token_classification(
            n_train=512, n_test=32, vocab_size=vocab, seed=7
        )
    else:
        ds = make_image_classification(n_train=512, n_test=32, seed=7)

    def data_iter():
        while True:
            for xb, yb in ds.batches(16, rng, epochs=1):
                yield xb, yb

    def loss_fn(m, x, y):
        return F.cross_entropy(forward_batch(m, x), y)

    return collect_model_stats(model, data_iter(), loss_fn, iterations=iterations)


def run_method_training(
    model_name: str,
    method: MethodPlan,
    cluster: Cluster,
    dataset: Dataset,
    epochs: int,
    seed: int,
    optimizer: str = "sgd",
    lr: float = 0.05,
    metric: str = "top1",
) -> float:
    """Train the executable model under one method's plan; returns accuracy.

    ``method.batch_sizes`` is in cluster worker order, ``method.plans`` is
    keyed by rank: ranks are identities, not positions."""
    workers = [
        WorkerConfig(rank=w.rank, batch_size=batch, plan=method.plans[w.rank])
        for w, batch in zip(cluster.workers, method.batch_sizes, strict=True)
    ]
    if optimizer == "sgd":
        def opt_factory(m):
            return SGD(m, lr=lr, momentum=0.9)
    else:
        def opt_factory(m):
            return Adam(m, lr=lr)
    trainer = DataParallelTrainer(
        model_factory=lambda s: make_mini_model(model_name, seed=s),
        workers=workers,
        optimizer_factory=opt_factory,
        seed=seed,
    )
    result = trainer.train(dataset, epochs=epochs, metric=metric)
    return result.final_accuracy
