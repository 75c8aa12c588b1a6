"""Uniform Precision (UP).

"Use a uniform precision for all operators in inference GPU, continue
lowering precision until the memory requirement is met" (Sec. VII,
Baselines).  Ops whose kernels lack the target precision keep their lowest
supported one at-or-above the target (softmax stays FP32).
"""

from __future__ import annotations

from repro.common.dtypes import Precision
from repro.common.errors import InfeasiblePlanError
from repro.core.allocator import uniform_plan
from repro.graph.dag import PrecisionDAG
from repro.hardware.device import DeviceSpec
from repro.profiling.memory import MemoryModel


def uniform_precision_plan(
    dag: PrecisionDAG,
    device: DeviceSpec,
    memory_model: MemoryModel | None = None,
) -> dict[str, Precision]:
    """The UP plan for one inference device.

    Walks the Allocator's precision ladder from FP32 downward and returns
    the first rung's :func:`~repro.core.allocator.uniform_plan` that fits
    ``device.available_memory``.
    """
    memory_model = memory_model or MemoryModel()
    work = dag.copy()
    for target in reversed(device.supported_precisions()):
        plan = uniform_plan(work, device, target)
        work.apply_plan(plan)
        if memory_model.fits(work, device.available_memory):
            return plan
    raise InfeasiblePlanError(
        f"no uniform precision fits {device.name} "
        f"({device.available_memory / 2**30:.1f} GiB available)"
    )
