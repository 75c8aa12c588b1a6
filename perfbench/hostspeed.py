"""Host-speed scaling of the timed metrics.

The benchmark shares a few cores of a host whose speed drifts: the same
warm ``plan`` call reads anywhere in 355-705 ms over a few minutes, and a
whole set of runs can sit 25% slower than the set before it.  CPU time
drifts with wall time, so neither clock alone compares two commits.

So every timed stretch of work is bracketed by a fixed *reference task*
that never touches the program: dict updates, a sort and small numpy
reductions, the mix the planner itself runs.  A stretch's wall time ``dt``
is reported scaled to the reference speed,
``dt * REFERENCE_S / mean(reference before, reference after)``: the time it
would take on a host that runs the reference task in ``REFERENCE_S``.  A
change to the program moves its own calls and never the reference, so a
speedup or a regression shows in full, while a slow or busy host slows both
and cancels out.  Raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one reference task takes on an idle 2-vCPU x86 host; the scale
#: a scaled time is expressed in.
REFERENCE_S = 0.003
#: The same for the array task.
ARRAY_REFERENCE_S = 0.003
_KEYS = [f"op{i}" for i in range(256)]
_ARRAY = np.linspace(0.0, 1.0, 64)
#: The array task's two 4 MB operands, made on first use only (in the sweep
#: child, whose ``peak_rss_mb`` they raise by the same 8 MB on every commit).
_BIG: list[np.ndarray] = []


def reference_task() -> float:
    costs: dict[str, float] = {}
    total = 0.0
    for step in range(24):
        for i, key in enumerate(_KEYS):
            costs[key] = costs.get(key, 0.0) + (i * 0.5 + step) ** 0.5
        ranked = sorted(costs.items(), key=lambda kv: kv[1])
        total += ranked[-1][1]
        for _ in range(8):
            total += float(np.add.accumulate(_ARRAY * step)[-1])
            total += float(np.maximum(_ARRAY, 0.5).sum())
    return total


def array_task() -> float:
    """Vectorised numpy over arrays larger than the caches, the kind of work
    of the ``tensor`` stack (im2col/col2im): it slows with memory
    contention that the interpreter-bound ``reference_task`` may not see."""
    if not _BIG:
        _BIG.append(np.arange(1 << 19, dtype=float))
        _BIG.append(np.empty(1 << 19))
    big, out = _BIG
    total = 0.0
    for _ in range(3):
        np.add(big, big[::-1], out=out)
        np.multiply(out, 0.5, out=out)
        total += float(out.reshape(512, -1).sum(axis=0)[3])
    return total


def reference_seconds(task=reference_task) -> float:
    """Median of three timed runs of ``task`` (robust to one preemption)."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        task()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class ScaledClock:
    """Times work in segments, sampling the reference at every boundary.

    ``start()`` opens the first segment; each ``lap()`` closes the current
    one and opens the next.  Reference sampling happens between segments,
    so it is never part of ``raw`` or ``scaled``.  A clock made with
    ``arrays=True`` also samples ``array_task``, and ``lap(arrays=True)``
    scales the segment just closed by it: vectorised numpy work does not
    slow with the interpreter, and the two drift apart on a shared host.
    """

    def __init__(self, arrays: bool = False) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._arrays = arrays

    def _sample(self) -> tuple[float, float]:
        interp = reference_seconds()
        return interp, reference_seconds(array_task) if self._arrays else interp

    def start(self) -> None:
        self._ref = self._sample()
        self._t0 = time.perf_counter()

    def lap(self, arrays: bool = False) -> None:
        dt = time.perf_counter() - self._t0
        ref = self._sample()
        kind, nominal = (1, ARRAY_REFERENCE_S) if arrays else (0, REFERENCE_S)
        self.raw += dt
        self.scaled += dt * nominal * 2 / (self._ref[kind] + ref[kind])
        self._ref = ref
        self._t0 = time.perf_counter()
