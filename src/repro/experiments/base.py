"""Shared experiment plumbing."""

from __future__ import annotations

import dataclasses
import numbers
from typing import Any, Sequence

#: The graph mirror the comm, compress, churn and straggler experiments
#: price, at the full and the quick protocol's scale.  Their scenario axes
#: fingerprint both kwargs, so edits re-key cached artifacts.
MINI_BERT = "mini_bert"
MINI_BERT_KW = {"batch_size": 8, "width_scale": 16, "spatial_scale": 8}
MINI_BERT_QUICK_KW = {**MINI_BERT_KW, "width_scale": 8, "spatial_scale": 4}


def mini_bert_kw(quick: bool) -> dict:
    """The :data:`MINI_BERT` graph kwargs of one protocol."""
    return MINI_BERT_QUICK_KW if quick else MINI_BERT_KW


@dataclasses.dataclass
class ExperimentResult:
    """One reproduced table/figure.

    Attributes
    ----------
    experiment_id:
        Registry key (``table4``, ``fig7``, ...).
    title:
        Human-readable description, matching the paper's caption.
    headers:
        Column names of :attr:`rows`.
    rows:
        The reproduced data, one list per table row.
    paper:
        The corresponding numbers the paper reports (same header order
        where applicable) — for side-by-side comparison, not for scoring:
        absolute values differ by construction (simulated substrate,
        synthetic data); *orderings* are the reproduction target.
    notes:
        Free-form commentary: substitutions, scale choices, observed shape.
    extras:
        Arbitrary artifacts (timelines, traces) keyed by name.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    paper: list[list[Any]] = dataclasses.field(default_factory=list)
    notes: str = ""
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)

    def formatted(self) -> str:
        out = [f"== {self.experiment_id}: {self.title} =="]
        out.append(format_table(self.headers, self.rows))
        if self.paper:
            out.append("-- paper reported --")
            out.append(format_table(self.headers, self.paper))
        if self.notes:
            out.append(f"notes: {self.notes}")
        return "\n".join(out)

    def column(self, header: str) -> list[Any]:
        """Extract one column of the measured rows by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def row_by(self, header: str, value) -> list[Any]:
        """First measured row whose ``header`` column equals ``value``."""
        idx = self.headers.index(header)
        for row in self.rows:
            if row[idx] == value:
                return row
        raise KeyError(f"no row with {header}={value!r}")

    # ------------------------------------------------------------------
    # JSON round trip (the artifact store's on-disk format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot.

        Tables, paper rows and notes round-trip losslessly (tuples become
        lists, numpy scalars become Python numbers).  ``extras`` are
        best-effort: entries that cannot be represented as JSON (live
        simulation objects, ndarrays) are replaced by a deterministic
        marker string so serial and parallel sweep workers serialize to
        identical bytes.
        """
        extras: dict[str, Any] = {}
        for key, value in self.extras.items():
            try:
                extras[str(key)] = jsonable(value)
            except TypeError:
                extras[str(key)] = (
                    f"<extra dropped: {type(value).__name__} is not "
                    f"JSON-serializable>"
                )
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": jsonable(self.headers),
            "rows": jsonable(self.rows),
            "paper": jsonable(self.paper),
            "notes": self.notes,
            "extras": extras,
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            headers=list(payload["headers"]),
            rows=[list(row) for row in payload["rows"]],
            paper=[list(row) for row in payload.get("paper", [])],
            notes=payload.get("notes", ""),
            extras=dict(payload.get("extras", {})),
        )


def jsonable(value: Any) -> Any:
    """Canonical JSON form of a value tree: tuples -> lists, numpy scalars
    -> Python numbers, mapping keys -> strings.  Raises ``TypeError`` on
    anything else so callers can decide to drop it."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width text table."""

    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def mean_std(values: Sequence[float]) -> str:
    """``mean±std`` string like the paper's accuracy cells."""
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 1:
        return f"{arr[0] * 100:.2f}%"
    return f"{arr.mean() * 100:.2f}±{arr.std() * 100:.2f}%"
