"""Persistent, content-addressed profiling store (the serving warm start).

A :class:`PersistentProfileStore` is a :class:`~repro.session.ProfileStore`
with a filesystem tier underneath the in-memory map: every catalog, cast
fit, and synthesized-stats artifact a session pays for is serialized to
``<root>/profiles/<fingerprint>.json``, and a *fresh process* pointed at
the same root warm-starts with zero profiling events.  It overrides only
the base store's two extraction points, ``_fetch`` and ``_persist``, and
picks the codec from the key's kind (``key[0]``).  The layout copies the
experiment :class:`~repro.experiments.artifacts.ArtifactStore`
disciplines wholesale:

* **content addresses** — the filename digests the store key, which is
  already built exclusively from :mod:`repro.common.stable_hash`
  fingerprints (profiling DAG fingerprint, backend measurement config with
  the device's fields, repeat count), so keys survive ``PYTHONHASHSEED``
  and process boundaries;
* **atomic writes** — temp file + ``os.replace``, so concurrent processes
  sharing a root can never expose a torn artifact;
* **misses, never errors** — unreadable, truncated, stale-format, or
  wrong-key files degrade to recomputation (and a ``disk_misses`` count);
  the cache may only ever cost a re-profile;
* **a format constant** — bump :data:`PROFILE_FORMAT` to invalidate every
  persisted profile at once (serialization or profiling-semantics changes).
  A key change needs no bump: a file only serves the exact key it records.

Loads are *exact*: floats round-trip through JSON byte-for-byte, so a
disk-served catalog drives the planner to results bit-identical to a fresh
profile — the parity oracle ``tests/test_service.py`` pins.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.backend.lp_backend import LPBackend
from repro.common.stable_hash import stable_digest
from repro.profiling.persistence import (
    cast_calc_from_dict,
    cast_calc_to_dict,
    catalog_from_dict,
    catalog_to_dict,
    stats_from_dict,
    stats_to_dict,
)
from repro.session.profiles import ProfileStore

#: On-disk profile schema version; bump to invalidate every persisted
#: profile at once (the ``ARTIFACT_FORMAT`` discipline from PR 2).
PROFILE_FORMAT = 1


class PersistentProfileStore(ProfileStore):
    """A ProfileStore whose misses fall through to an on-disk tier.

    Parameters
    ----------
    root:
        Store root directory; artifacts live under ``<root>/profiles/``.
        Several processes may share one root — writes are atomic and
        content-addressed, so concurrent writers of the same key produce
        byte-identical files and last-write-wins is a no-op.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__()
        self.root = Path(root)
        self.profile_dir = self.root / "profiles"

    # ------------------------------------------------------------------
    def path_for(self, key: tuple) -> Path:
        """Content address of one store key (strings and ints only, so the
        digest is stable across processes by construction)."""
        return self.profile_dir / f"{stable_digest(key)}.json"

    def _read_payload(self, key: tuple) -> dict | None:
        """The artifact payload for ``key``, or ``None`` on any defect."""
        path = self.path_for(key)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != PROFILE_FORMAT:
            return None
        if doc.get("key") != list(key):
            return None
        payload = doc.get("payload")
        return payload if isinstance(payload, dict) else None

    def _write_payload(self, key: tuple, payload: dict) -> None:
        """Atomically persist one artifact; a failed write is a silent
        no-op (the disk tier is a cache — planning must not die because a
        cache volume filled up)."""
        doc = {
            "format": PROFILE_FORMAT,
            "kind": key[0],
            "key": list(key),
            "payload": payload,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            pass

    # -- extraction-point overrides ------------------------------------
    # The codecs are called through their module-global names so that a
    # tracer patching those globals sees every encode and decode.
    def _fetch(self, key: tuple, backend: LPBackend | None) -> Any:
        payload = self._read_payload(key)
        artifact = None
        if payload is not None:
            try:
                if key[0] == "catalog":
                    artifact = catalog_from_dict(payload)
                elif key[0] == "cast":
                    artifact = cast_calc_from_dict(payload, backend)
                else:
                    artifact = stats_from_dict(payload)
            except (KeyError, TypeError, ValueError):
                artifact = None
        if artifact is None:
            self.stats.disk_misses += 1
        else:
            self.stats.disk_hits += 1
        return artifact

    def _persist(self, key: tuple, artifact: Any) -> None:
        if key[0] == "catalog":
            payload = catalog_to_dict(artifact)
        elif key[0] == "cast":
            payload = cast_calc_to_dict(artifact)
        else:
            payload = stats_to_dict(artifact)
        self._write_payload(key, payload)

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """All persisted profile artifacts, in sorted (deterministic) order."""
        if not self.profile_dir.is_dir():
            return []
        return sorted(self.profile_dir.glob("*.json"))

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every persisted profile (and interrupted ``*.tmp.*``
        partials); returns how many artifacts were removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        if self.profile_dir.is_dir():
            for partial in self.profile_dir.glob("*.tmp.*"):
                partial.unlink()
        return removed
