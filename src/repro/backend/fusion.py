"""Dequantization fusion (Sec. VI).

Fixed-point kernels accumulate in INT32 and must dequantize before the next
operator.  Unfused, that is a separate elementwise kernel (read INT32, write
FP); LP-PyTorch fuses it "into the operator kernel at the epilogue level,
i.e. before copying the accumulator result into the shared memory", which
removes the extra global-memory round trip entirely.
"""

from __future__ import annotations

from repro.hardware.device import DeviceSpec


def dequant_cost(device: DeviceSpec, output_elems: int, fused: bool) -> float:
    """Seconds spent dequantizing one INT8 op's output.

    Unfused: a full elementwise pass — read 4-byte INT32 accumulator, write
    4-byte FP32.  Fused: the epilogue applies the scale in-register; only
    the kernel-launch saving is counted (zero extra cost).
    """
    if fused:
        return 0.0
    bytes_moved = output_elems * (4 + 4)
    return bytes_moved / device.effective_bandwidth + device.kernel_launch_overhead
