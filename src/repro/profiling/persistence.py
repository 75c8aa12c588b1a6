"""Profile persistence.

The paper's workflow profiles on the target hardware once, then replays and
allocates offline.  These helpers turn the profiling artifacts — operator
cost catalogs, cast-cost fits and synthesized indicator statistics — into
JSON-able dicts and back, so a planning session can run on a different
machine (or later) without re-measuring.  Writing them to disk is
:class:`repro.common.jsondir.JsonDir`'s job.

Round trips are *exact*: every float survives ``json`` byte-for-byte
(shortest-repr encoding) and every list preserves order, so an artifact
loaded from disk drives the planner to bit-identical results — the
invariant the disk tier of :class:`repro.session.ProfileStore` leans on.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Mapping

from repro.common.dtypes import parse_precision
from repro.profiling.casting import CastCostCalculator, LinearCostModel
from repro.profiling.profiler import OperatorCost, OperatorCostCatalog
from repro.profiling.stats import OperatorStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.lp_backend import LPBackend


def catalog_to_dict(catalog: OperatorCostCatalog) -> dict:
    """JSON-able representation of a cost catalog."""
    return {
        "device": catalog.device_name,
        "input_elems": dict(catalog._input_elems),
        "costs": [
            {
                "op": op,
                "precision": prec.value,
                "forward": cost.forward,
                "backward": cost.backward,
            }
            for (op, prec), cost in catalog._costs.items()
        ],
    }


def catalog_from_dict(data: dict) -> OperatorCostCatalog:
    """Inverse of :func:`catalog_to_dict`."""
    catalog = OperatorCostCatalog(data["device"])
    catalog._input_elems.update(
        {op: int(v) for op, v in data.get("input_elems", {}).items()}
    )
    for entry in data["costs"]:
        catalog.put(
            entry["op"],
            parse_precision(entry["precision"]),
            OperatorCost(forward=float(entry["forward"]),
                         backward=float(entry["backward"])),
        )
    return catalog


def cast_calc_to_dict(calc: CastCostCalculator) -> dict:
    """JSON-able representation of a fitted cast-cost calculator (the
    fitted coefficients and the fit configuration; the backend itself is
    rebound at load time)."""
    return {
        "sizes": [int(s) for s in calc.sizes],
        "repeats": int(calc.repeats),
        "models": [
            {
                "src": src.value,
                "dst": dst.value,
                "slope": model.slope,
                "intercept": model.intercept,
                "r2": model.r2,
            }
            for (src, dst), model in calc._models.items()
        ],
    }


def cast_calc_from_dict(data: dict, backend: "LPBackend") -> CastCostCalculator:
    """Inverse of :func:`cast_calc_to_dict`; ``backend`` must be the live
    backend the fits belong to (the caller keys artifacts so this holds)."""
    models = {}
    for entry in data["models"]:
        pair = (parse_precision(entry["src"]), parse_precision(entry["dst"]))
        models[pair] = LinearCostModel(
            slope=float(entry["slope"]),
            intercept=float(entry["intercept"]),
            r2=float(entry["r2"]),
        )
    return CastCostCalculator.from_fitted(
        backend,
        sizes=tuple(data["sizes"]),
        repeats=data["repeats"],
        models=models,
    )


def stats_to_dict(stats: Mapping[str, OperatorStats]) -> dict:
    """JSON-able representation of per-operator indicator statistics.

    Entries ride in a list (not an object) so the mapping's insertion order
    — the DAG's adjustable-op order — survives ``sort_keys`` dumps.
    """
    entries = []
    for name, s in stats.items():
        fields = dataclasses.asdict(s)
        counts = fields.pop("_counts")
        entries.append({"op": name, "fields": fields, "counts": counts})
    return {"stats": entries}


def stats_from_dict(data: dict) -> dict[str, OperatorStats]:
    """Inverse of :func:`stats_to_dict` (exact float round trip)."""
    out: dict[str, OperatorStats] = {}
    for entry in data["stats"]:
        s = OperatorStats(**entry["fields"])
        s._counts.update({k: int(v) for k, v in entry["counts"].items()})
        out[entry["op"]] = s
    return out

