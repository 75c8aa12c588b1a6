"""Compiled array kernel for the Eq. (6) replay.

This package lowers a :class:`~repro.core.dfg.LocalDFG` to flat float64
arrays *once per structure fingerprint + precision signature* and then
evaluates Eq. (6) — and whole batches of what-if candidates — as dense
array operations.  ``Replayer.simulate`` does not use it (it plays
``repro.engine.core.execute_global_dfg`` once per rank group); it serves
only ``Replayer.whatif_candidates``.

Contracts (the PR 5 oracle discipline, extended):

* **Bit parity.**  Every reduction reproduces the Eq. (6) recurrence's
  left-to-right float64 operation order (``np.add.accumulate`` over a 1-D
  array is the Python prefix loop bit-for-bit, and so is a left-to-right
  ``reduce``/``accumulate`` over Python floats; the bucket recurrence stays
  a sequential loop because the closed-form cumsum/maximum.accumulate
  rewrite would reassociate additions).  ``execute_global_dfg`` under the
  default policy and no perturbation is the kernel's equality oracle.
* **Frozen buffers.**  Published arrays are ``writeable=False``; consumers
  copy before mutating (linter rule RPR007).
* **Declining, not guessing.**  A DFG the lowering cannot honour yields
  ``None`` (or an eval-only compilation) and callers fall back to the
  object path.

Layer 1 on the import ladder: the kernel knows nothing about DAGs, cost
mappers or clusters — it consumes plain layouts and duck-typed DFGs.
"""

from repro.kernel.batch import candidate_row, simulate_batch
from repro.kernel.compiled import (
    CompiledGlobal,
    CompiledLocal,
    LocalLayout,
    compile_global,
    compile_local,
    evaluate,
)

__all__ = [
    "CompiledGlobal",
    "CompiledLocal",
    "LocalLayout",
    "candidate_row",
    "compile_global",
    "compile_local",
    "evaluate",
    "simulate_batch",
]
