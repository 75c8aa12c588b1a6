"""Physical units and conversions.

All internal quantities use SI base units: **bytes**, **seconds**, **FLOPs**.
These constants make call sites read like the datasheets they are calibrated
against (``15.7 * TFLOPS``, ``32 * GB``, ``300 * GBPS``).
"""

from __future__ import annotations

#: Storage units (binary, matching how GPU memory is marketed/reported).
KB: int = 1024
MB: int = 1024**2
GB: int = 1024**3

#: Time units expressed in seconds.
MS: float = 1e-3
US: float = 1e-6

#: Compute throughput: 1 TFLOPS = 1e12 floating-point operations per second.
TFLOPS: float = 1e12

#: Bandwidth: 1 GB/s, decimal as in interconnect datasheets.
GBPS: float = 1e9

