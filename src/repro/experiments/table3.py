"""Table III — replay accuracy.

Three BERT precision configurations (all linears to FP16; all linears to
INT8; encoder layers 1/3/5 to FP16), each predicted by:

* **QSync** — the cast-aware Replayer;
* **w/o cost mapper (Dpro)** — pure-op-cost replay, no casts/cascade;

against the **ground truth** fine-grained event simulator (5 averaged
iterations, per CONTRIBUTING.md "Substitutions").  The paper reports
QSync < 5 % error with Dpro substantially worse on cast-heavy configs.
"""

from __future__ import annotations

from repro.baselines import DproReplayer
from repro.common.dtypes import Precision
from repro.common.units import GBPS
from repro.core.simulator import GroundTruthSimulator
from repro.experiments.base import ExperimentResult
from repro.hardware import T4
from repro.hardware.cluster import Cluster, Worker
from repro.session import PlanRequest, PlanSession


#: 6-layer scaled mini-BERT so "layers 1,3,5" exist.  Sweep scenario axes
#: derive this table's cache-key model set and graph configuration from
#: here, so edits re-key cached artifacts.
MODEL_NAME = "mini_bert6"
GRAPH_KW = {"batch_size": 12, "width_scale": 24, "spatial_scale": 8}


def _configs(dag):
    """The three Table III precision configurations."""
    linears = [
        op for op in dag.adjustable_ops()
        if dag.spec(op).has_weight
    ]
    half_linears = {op: Precision.FP16 for op in linears}
    int_linears = {op: Precision.INT8 for op in linears}
    target_blocks = ("blocks.0.", "blocks.2.", "blocks.4.")
    half_layers = {
        op: Precision.FP16
        for op in linears
        if op.startswith(target_blocks)
    }
    return {
        "Half-Linears": half_linears,
        "INT-Linears": int_linears,
        "Half-BertLayer1,3,5": half_layers,
    }


def run(quick: bool = True) -> ExperimentResult:
    # A homogeneous 2xT4 communication group (the paper traces comm on small
    # homogeneous sub-sets, Sec. IV-B): both workers carry the quantized
    # configuration, so the mixed-precision execution *is* the critical path
    # the predictors must get right.
    cluster = Cluster(
        name="2xT4",
        workers=tuple(
            Worker(rank=r, device=T4, link_bandwidth=32 * GBPS) for r in range(2)
        ),
    )
    # 6-layer scaled mini-BERT so "layers 1,3,5" exist; dim 768, seq 128.
    ctx = PlanSession().prepare(
        PlanRequest(
            model=MODEL_NAME, model_kwargs=GRAPH_KW, cluster=cluster,
            profile_repeats=3,
        )
    )
    replayer, backends = ctx.replayer, ctx.backends
    dag_inf = replayer.dags[1]
    gt_iters = 3 if quick else 5

    rows = []
    for label, plan in _configs(dag_inf).items():
        for rank in (0, 1):
            replayer.apply_plan(
                rank, {op: Precision.FP32 for op in dag_inf.adjustable_ops()}
            )
            replayer.apply_plan(rank, plan)

        truth = GroundTruthSimulator(
            cluster, replayer.dags, backends, seed=0
        ).run(iterations=gt_iters).iteration_time
        qsync_est = replayer.simulate().iteration_time
        dpro_est = DproReplayer(
            cluster, replayer.dags,
            {r: replayer.mappers[r].catalog for r in replayer.mappers},
        ).simulate().iteration_time

        rows.append([label, "Ground Truth", f"{truth * 1e3:.2f}", "/"])
        rows.append([
            label, "w/o cost mapper (Dpro)", f"{dpro_est * 1e3:.2f}",
            f"{abs(dpro_est - truth) / truth * 100:.1f}%",
        ])
        rows.append([
            label, "QSync", f"{qsync_est * 1e3:.2f}",
            f"{abs(qsync_est - truth) / truth * 100:.1f}%",
        ])

    return ExperimentResult(
        experiment_id="table3",
        title="Replay accuracy (per-iteration latency prediction vs ground truth)",
        headers=["Config", "Method", "Est. (ms)", "Err"],
        rows=rows,
        paper=[
            ["Half-Linears", "Ground Truth", "474.83", "/"],
            ["Half-Linears", "w/o cost mapper (Dpro)", "427.50", "8±0.3%"],
            ["Half-Linears", "QSync", "474.52", "3.5±0.5%"],
            ["INT-Linears", "Ground Truth", "548.46", "/"],
            ["INT-Linears", "w/o cost mapper (Dpro)", "462.73", "13±1.9%"],
            ["INT-Linears", "QSync", "537.55", "2±0.1%"],
            ["Half-BertLayer1,3,5", "Ground Truth", "787.02", "/"],
            ["Half-BertLayer1,3,5", "w/o cost mapper (Dpro)", "765.55", "3±0.7%"],
            ["Half-BertLayer1,3,5", "QSync", "781.50", "1±0.7%"],
        ],
        notes=(
            "Absolute latencies differ (BERT-base on real T4s vs the scaled "
            "mini graph on the analytical substrate); the shape to check: "
            "QSync error < 5% on every config, Dpro worst on INT-Linears "
            "(largest casting share), mildest on the partial-FP16 config."
        ),
    )
