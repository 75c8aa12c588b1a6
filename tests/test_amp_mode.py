"""Tests for the §VIII extension: QSync under Automated Mixed Precision.

"AMP employs FP16/BF16 for both inference and training GPUs.  We assert
QSync is still applicable, with the precision recovery target shifting from
the inference GPU to the training GPU" — the throughput-maximum case.
"""


from repro.common import Precision
from repro.common.units import GBPS
from repro.core import AllocatorConfig
from repro.hardware import V100, make_cluster_a
from repro.hardware.cluster import Cluster, Worker
from repro.models import mini_model_graph
from repro.session import PlanRequest, PlanSession


def scaled_bert():
    return mini_model_graph("mini_bert", batch_size=8, width_scale=24,
                            spatial_scale=8)


def training_only_cluster(n: int = 2) -> Cluster:
    return Cluster(
        name="train-only",
        workers=tuple(
            Worker(rank=i, device=V100, link_bandwidth=300 * GBPS)
            for i in range(n)
        ),
    )


class TestAmpMode:
    def test_default_mode_leaves_training_gpus_alone(self):
        plan = PlanSession().plan(
            PlanRequest(model=scaled_bert, cluster=training_only_cluster(), loss="ce")
        ).plan
        assert plan.assignments == {}

    def test_amp_mode_plans_training_gpus(self):
        outcome = PlanSession().plan(
            PlanRequest(
                model=scaled_bert,
                cluster=training_only_cluster(),
                loss="ce",
                config=AllocatorConfig(amp_mode=True),
            )
        )
        plan, report = outcome.plan, outcome.report
        v100_plan = plan.for_device("V100")
        assert v100_plan  # training GPUs now carry a plan
        # V100 has no INT8 path: the plan must be FP16/FP32 only.
        assert set(v100_plan.values()) <= {Precision.FP16, Precision.FP32}
        # The throughput-maximum case: some ops at the AMP precision.
        counts = plan.precision_counts("V100")
        assert counts["fp16"] > 0

    def test_amp_mode_recovers_toward_fp32(self):
        """The recovery target shifts to the training GPU: at least some
        promotions should be attempted there."""
        report = PlanSession().plan(
            PlanRequest(
                model=scaled_bert,
                cluster=training_only_cluster(),
                loss="ce",
                config=AllocatorConfig(amp_mode=True),
            )
        ).report
        assert report.allocation.recovery_attempts > 0

    def test_amp_mode_throughput_constraint_still_holds(self):
        report = PlanSession().plan(
            PlanRequest(
                model=scaled_bert,
                cluster=training_only_cluster(),
                loss="ce",
                config=AllocatorConfig(amp_mode=True),
            )
        ).report
        alloc = report.allocation
        assert alloc.final_throughput >= 0.99 * alloc.t_min

    def test_amp_mode_on_hybrid_cluster_plans_both_types(self):
        cluster = make_cluster_a(1, 1)
        plan = PlanSession().plan(
            PlanRequest(
                model=scaled_bert,
                cluster=cluster,
                loss="ce",
                config=AllocatorConfig(amp_mode=True),
            )
        ).plan
        assert plan.for_device("V100")
        assert plan.for_device("T4")

    def test_amp_faster_than_fp32_baseline(self):
        """AMP mode's whole point: the plan beats the pinned-FP32 cluster."""
        cluster = training_only_cluster()
        fp32_report = PlanSession().plan(
            PlanRequest(model=scaled_bert, cluster=cluster, loss="ce")
        ).report
        amp_report = PlanSession().plan(
            PlanRequest(
                model=scaled_bert,
                cluster=cluster,
                loss="ce",
                config=AllocatorConfig(amp_mode=True),
            )
        ).report
        assert (
            amp_report.final_simulation.throughput
            > fp32_report.final_simulation.throughput
        )
