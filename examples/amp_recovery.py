"""§VIII extension: QSync under Automated Mixed Precision.

Under AMP every GPU — training ones included — runs FP16 by default.  The
paper asserts QSync still applies "with the precision recovery target
shifting from the inference GPU to the training GPU": start everything at
the AMP precision for maximum throughput, then recover the most sensitive
operators to FP32 wherever the throughput envelope has slack.

This example plans the same BERT-style job twice on a pure V100 cluster —
pinned-FP32 (classic) vs AMP-mode QSync — and shows the throughput gain and
which operators the indicator chose to protect.

Run:  python examples/amp_recovery.py
"""

from repro.common import Precision
from repro.common.units import GBPS
from repro.core import AllocatorConfig
from repro.hardware import V100
from repro.hardware.cluster import Cluster, Worker
from repro.models import mini_model_graph
from repro.session import PlanRequest, PlanSession


def main() -> None:
    cluster = Cluster(
        name="train-only",
        workers=tuple(
            Worker(rank=r, device=V100, link_bandwidth=300 * GBPS)
            for r in range(2)
        ),
    )

    def builder():
        return mini_model_graph(
            "mini_bert", batch_size=8, width_scale=24, spatial_scale=8
        )

    fp32_report = PlanSession().plan(
        PlanRequest(model=builder, cluster=cluster, loss="ce")
    ).report
    outcome = PlanSession().plan(
        PlanRequest(
            model=builder,
            cluster=cluster,
            loss="ce",
            config=AllocatorConfig(amp_mode=True),
        )
    )
    plan, amp_report = outcome.plan, outcome.report

    fp32_tp = fp32_report.final_simulation.throughput
    amp_tp = amp_report.final_simulation.throughput
    print(f"pinned FP32:  {fp32_tp:.2f} it/s")
    print(f"AMP + QSync:  {amp_tp:.2f} it/s  ({amp_tp / fp32_tp:.2f}x)")
    print()
    print(f"V100 plan: {plan.summary()}")
    protected = [
        op for op, p in plan.for_device("V100").items() if p is Precision.FP32
    ]
    print(f"operators the indicator protected at FP32: {len(protected)}")
    for op in protected[:8]:
        print(f"  {op}")


if __name__ == "__main__":
    main()
