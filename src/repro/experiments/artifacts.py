"""Content-addressed artifact store for experiment results.

Each sweep cell's :class:`~repro.experiments.base.ExperimentResult` is
written to ``<root>/<experiment_id>/<fingerprint>.json``, where the
fingerprint is a :func:`repro.common.stable_hash.stable_digest` over the
cell's code-independent inputs (graph structure fingerprints, cluster
preset, protocol, seed — see :meth:`ScenarioCell.fingerprint`).  Re-running
a sweep therefore replays cached cells and recomputes only cells whose
inputs changed — the experiments-layer analogue of the incremental replay
engine's cross-DAG caches.

Artifact bytes are deterministic: sorted keys, fixed indentation, no
timings or host metadata inside the file.  A parallel sweep and a serial
sweep of the same grid write byte-identical artifacts (pinned by
``tests/test_sweep.py``).  The disk rules — format envelope, atomic writes,
every defect a miss, a failed write a miss too — are
:class:`repro.common.jsondir.JsonDir`'s, shared with the persistent profile
tier.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.common.jsondir import JsonDir
from repro.experiments.base import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.sweep import ScenarioCell

#: On-disk schema version; bump to invalidate every cached artifact at once.
#: 2: PlanSession adoption — fig6's QSync leg now shares the UP leg's
#: repeats=2 catalogs instead of re-profiling at the legacy default of 3.
#: 3: shared DFG assembly — ground-truth/Dpro bucket readiness now anchors
#: zero-backward-cost weighted ops to the nearest *preceding* backward node
#: (the Cost Mapper rule) instead of the end of the stream, which can move
#: Table III-family numbers.
#: 4: one Eq. (6) dispatch rule — under a perturbation (churn ``degrade``
#: replans) recovery now runs sequentially over every rank instead of
#: batching on the unperturbed kernel, which moves perturbed qsync plans
#: (full-mode churn ``rolling_degrade``).
ARTIFACT_FORMAT = 4


class ArtifactStore:
    """Filesystem-backed, content-addressed cache of experiment results."""

    def __init__(self, root: str | os.PathLike = ".qsync-artifacts") -> None:
        self._dir = JsonDir(root, ARTIFACT_FORMAT, "*/*.json")
        self.root = self._dir.root

    # ------------------------------------------------------------------
    def path_for(self, cell: "ScenarioCell", fingerprint: str | None = None) -> Path:
        fingerprint = fingerprint or cell.fingerprint()
        return self.root / cell.experiment_id / f"{fingerprint}.json"

    def load(
        self, cell: "ScenarioCell", fingerprint: str | None = None
    ) -> ExperimentResult | None:
        """Cached result for ``cell``, or ``None`` on miss.

        Unreadable or mismatched artifacts (truncated writes from a killed
        process, stale schema, a document that is not a JSON object) are
        treated as misses, never as errors — the cache must only ever cost
        a recomputation.
        """
        fingerprint = fingerprint or cell.fingerprint()
        doc = self._dir.read(self.path_for(cell, fingerprint), fingerprint=fingerprint)
        if doc is None:
            return None
        try:
            return ExperimentResult.from_json_dict(doc["result"])
        except (KeyError, TypeError):
            return None

    def save(
        self,
        cell: "ScenarioCell",
        result_payload: dict[str, Any],
        fingerprint: str | None = None,
    ) -> Path | None:
        """Atomically write one cell's result payload; returns the path, or
        ``None`` when the write failed (the cell is then a miss next run)."""
        fingerprint = fingerprint or cell.fingerprint()
        doc = {
            "fingerprint": fingerprint,
            "cell": cell.describe(),
            "result": result_payload,
        }
        return self._dir.write(self.path_for(cell, fingerprint), doc)

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All artifact files currently in the store."""
        return self._dir.entries()

    def __len__(self) -> int:
        return len(self._dir)

    def clear(self) -> int:
        """Delete every artifact (and any partial left behind by an
        interrupted :meth:`save`); returns how many artifacts were removed."""
        return self._dir.clear()
