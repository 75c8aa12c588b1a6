"""One directory of content-addressed JSON documents — the disk rules the
experiment artifact store and the persistent profile tier share.

* **a format envelope** — :meth:`JsonDir.write` stamps every document with
  the directory's ``format``; :meth:`JsonDir.read` serves only documents of
  that format, so bumping the constant invalidates every file at once;
* **content addresses** — the caller names each file after a
  :mod:`repro.common.stable_hash` digest and passes the fields that digest
  was taken over as ``expect``, so a file only ever serves the exact key it
  records;
* **atomic writes** — temp file + ``os.replace``, so concurrent processes
  sharing a root can never expose a torn document; bytes are deterministic
  (sorted keys, fixed indentation);
* **misses, never errors** — an absent, unreadable, truncated, non-object,
  stale-format or wrong-key file reads as ``None``, and a failed write
  returns ``None`` and leaves no partial behind: the cache may only ever
  cost a recomputation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


class JsonDir:
    """JSON documents of one ``format`` under ``root``, listed by the glob
    ``pattern`` (relative to ``root``)."""

    def __init__(self, root: str | os.PathLike, format: int, pattern: str) -> None:
        self.root = Path(root)
        self.format = format
        self.pattern = pattern

    def read(self, path: Path, **expect: Any) -> dict | None:
        """The document at ``path`` when it is a JSON object of this format
        whose ``expect`` fields match; ``None`` otherwise."""
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != self.format:
            return None
        if any(doc.get(field) != value for field, value in expect.items()):
            return None
        return doc

    def write(self, path: Path, doc: dict) -> Path | None:
        """Atomically write ``doc`` (stamped with the format) to ``path``;
        ``None`` when the write failed, with the partial removed."""
        text = json.dumps({**doc, "format": self.format}, indent=2, sort_keys=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text + "\n")
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return None
        return path

    def entries(self) -> list[Path]:
        """Every document file, in sorted (deterministic) order."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(self.pattern))

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every document (and any ``*.tmp.*`` partial an interrupted
        process left behind); returns how many documents were removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        partials = str(Path(self.pattern).with_suffix(".tmp.*"))
        if self.root.is_dir():
            for partial in self.root.glob(partials):
                partial.unlink()
        return removed
