"""Bring your own GPU: define a device, autotune kernels, plan a job.

Demonstrates the extension surface a downstream user needs most often:
adding an inference accelerator that is not in the preset registry, watching
the LP-PyTorch autotuner pick kernel templates for it, and planning a hybrid
job that mixes it with V100 trainers.

Run:  python examples/custom_device.py
"""

from repro.backend import AutoTuner
from repro.common import Precision
from repro.common.units import GB, GBPS, TFLOPS
from repro.graph.ops import OpKind
from repro.hardware import V100, DeviceSpec
from repro.hardware.cluster import Cluster, Worker
from repro.models import mini_model_graph
from repro.session import PlanRequest, PlanSession


def main() -> None:
    # A hypothetical low-cost inference card: strong INT8, modest memory.
    l4ish = DeviceSpec(
        name="L4ish",
        arch="sm80",
        peak_flops={
            Precision.FP32: 30.0 * TFLOPS,
            Precision.FP16: 120.0 * TFLOPS,
            Precision.INT8: 240.0 * TFLOPS,
        },
        memory_bytes=24 * GB,
        mem_bandwidth=300 * GBPS,
        is_training_gpu=False,
    )

    print("Autotuning a 4096x4096x1024 INT8 GEMM on the new device:")
    tuner = AutoTuner(l4ish.arch)
    for prec in (Precision.FP16, Precision.INT8):
        tuned = tuner.tune(OpKind.LINEAR, prec, (4096, 4096, 1024))
        print(
            f"  {prec.value}: template {tuned.template.label}, "
            f"efficiency {tuned.efficiency:.2f} "
            f"({tuned.candidates_tried} candidates tried)"
        )

    cluster = Cluster(
        name="custom",
        workers=(
            Worker(rank=0, device=V100, link_bandwidth=300 * GBPS),
            Worker(rank=1, device=l4ish, link_bandwidth=64 * GBPS),
        ),
    )

    def builder():
        return mini_model_graph(
            "mini_resnet", batch_size=128, width_scale=24, spatial_scale=4
        )

    outcome = PlanSession().plan(
        PlanRequest(model=builder, cluster=cluster, loss="ce")
    )
    plan, report = outcome.plan, outcome.report
    print()
    print(report.summary())
    print(f"plan: {plan.summary()}")


if __name__ == "__main__":
    main()
