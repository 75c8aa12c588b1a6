"""MinMax collection — the scaling-factor statistics kernel (Sec. VI).

Tensor-wise fixed-point quantization needs the tensor's min/max to compute
the scaling factor.  The paper found the naive implementation underutilizes
the GPU and replaced it with a two-step scheme:

1. row-wise statistics with a constant thread count per block, reduced by a
   warp-level primitive (one streaming pass over the data);
2. a second, tiny kernel reducing the per-row results to tensor scalars.

Both strategies compute the same two scalars, so only their cost is
modelled here.  The cost gap reproduces Fig. 7(a): the vanilla path re-reads
the tensor once per reduction stage while the optimized path is single-pass
plus a negligible tail kernel.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.device import DeviceSpec


@dataclasses.dataclass(frozen=True)
class MinMaxKernel:
    """Latency model of the two MinMax strategies on a device.

    Attributes
    ----------
    device:
        Target device (bandwidth + launch overhead).
    optimized:
        Whether the two-step warp-primitive kernel is used.
    """

    device: DeviceSpec
    optimized: bool = True

    #: Vanilla: one fused aminmax pass but with poor occupancy for large
    #: inputs (grid-wide atomics serialize the tail), plus a tree of small
    #: reduction kernels.
    _VANILLA_PASSES: float = 1.0
    _VANILLA_TAIL_LAUNCHES: int = 4
    _VANILLA_INEFFICIENCY: float = 1.55  # atomics / partial-occupancy factor

    #: Optimized: one fused streaming pass (min+max together) + tiny kernel.
    _OPT_PASSES: float = 1.0
    _OPT_TAIL_LAUNCHES: int = 1

    def time(self, nbytes: float, rows: int = 1) -> float:
        """Seconds to collect tensor-wise min/max of an ``nbytes`` tensor."""
        bw = self.device.effective_bandwidth
        launch = self.device.kernel_launch_overhead
        if self.optimized:
            stream = self._OPT_PASSES * nbytes / bw
            # Row-partials buffer: 8 bytes (min+max) per row, read+write.
            tail = 16.0 * max(rows, 1) / bw
            return stream + tail + (1 + self._OPT_TAIL_LAUNCHES) * launch
        stream = self._VANILLA_PASSES * nbytes / bw * self._VANILLA_INEFFICIENCY
        return stream + (1 + self._VANILLA_TAIL_LAUNCHES) * launch

    def speedup_vs_vanilla(self, nbytes: float, rows: int = 1) -> float:
        """Optimized-over-vanilla latency ratio (< 1 means faster)."""
        vanilla = dataclasses.replace(self, optimized=False)
        return self.time(nbytes, rows) / vanilla.time(nbytes, rows)
