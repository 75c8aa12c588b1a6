"""Predictor fidelity: the Replayer against the ground-truth simulator.

Reproduces Table III's protocol on a BERT-style graph: apply three
mixed-precision configurations, predict each iteration's latency with the
cast-aware Replayer and with a Dpro-style casting-blind replay, and compare
against the fine-grained ground-truth event engine.

Run:  python examples/replayer_vs_ground_truth.py
"""

from repro.baselines import DproReplayer
from repro.common import Precision
from repro.common.units import GBPS
from repro.core.simulator import GroundTruthSimulator
from repro.hardware import T4
from repro.hardware.cluster import Cluster, Worker
from repro.models import mini_model_graph
from repro.session import PlanRequest, PlanSession


def main() -> None:
    cluster = Cluster(
        name="2xT4",
        workers=tuple(
            Worker(rank=r, device=T4, link_bandwidth=32 * GBPS) for r in range(2)
        ),
    )

    def builder():
        return mini_model_graph(
            "mini_bert6", batch_size=12, width_scale=24, spatial_scale=8
        )

    ctx = PlanSession().prepare(
        PlanRequest(model=builder, cluster=cluster, profile_repeats=3)
    )
    replayer, backends = ctx.replayer, ctx.backends
    # replayer.dags is keyed by rank identity; ranks may be non-contiguous
    # on churned clusters, so pick the lowest rank rather than literal 0.
    dag = replayer.dags[min(replayer.dags)]
    linears = [op for op in dag.adjustable_ops() if dag.spec(op).has_weight]

    configs = {
        "all linears -> FP16": {op: Precision.FP16 for op in linears},
        "all linears -> INT8": {op: Precision.INT8 for op in linears},
        "layers 0,2,4 -> FP16": {
            op: Precision.FP16
            for op in linears
            if op.startswith(("blocks.0.", "blocks.2.", "blocks.4."))
        },
    }

    print(f"{'configuration':<24s} {'truth':>9s} {'replayer':>9s} "
          f"{'err':>6s} {'dpro':>9s} {'err':>6s}")
    for label, plan in configs.items():
        for rank in (0, 1):
            replayer.apply_plan(rank, {op: Precision.FP32 for op in linears})
            replayer.apply_plan(rank, plan)
        truth = GroundTruthSimulator(cluster, replayer.dags, backends, seed=0)
        t_true = truth.run(iterations=5).iteration_time
        t_replay = replayer.simulate().iteration_time
        dpro = DproReplayer(
            cluster, replayer.dags,
            {r: replayer.mappers[r].catalog for r in replayer.mappers},
        )
        t_dpro = dpro.simulate().iteration_time
        print(
            f"{label:<24s} {t_true * 1e3:8.2f}ms {t_replay * 1e3:8.2f}ms "
            f"{abs(t_replay - t_true) / t_true * 100:5.1f}% "
            f"{t_dpro * 1e3:8.2f}ms {abs(t_dpro - t_true) / t_true * 100:5.1f}%"
        )
    print("\nThe Replayer stays under the paper's 5% error bound; the "
          "casting-blind replay underestimates quantized configurations.")


if __name__ == "__main__":
    main()
