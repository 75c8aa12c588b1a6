"""Parallel, cache-aware experiment sweeps.

QSync's evaluation is a grid — methods x models x cluster presets x
protocols (Tables I-VI, Figs. 4-8).  This module turns that grid into
independent, deterministically-seeded *cells* and executes them with
failure isolation, optional process parallelism, and a content-addressed
artifact cache:

* :class:`ScenarioGrid` expands the :data:`~repro.experiments.registry.SCENARIOS`
  axes into :class:`ScenarioCell`\\ s (one per experiment x model variant x
  protocol);
* :class:`SweepRunner` executes cells serially or via a
  ``ProcessPoolExecutor``, timing each cell and converting per-cell crashes
  into ``failed`` outcomes instead of aborting the sweep;
* results are cached in an :class:`~repro.experiments.artifacts.ArtifactStore`
  keyed on each cell's :meth:`~ScenarioCell.fingerprint` — a stable digest
  of the cell's code-independent inputs (model graph structure
  fingerprints, cluster preset, protocol, seed), so a repeated sweep
  replays from disk and only recomputes cells whose inputs changed.

Both execution paths round-trip results through the JSON payload the store
writes, so a cached replay, a serial run, and a parallel run all yield
identical :class:`~repro.experiments.base.ExperimentResult` objects and
byte-identical artifacts.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import time
import traceback

# repro: allow RPR002 perf_counter feeds SweepReport progress timings only;
# they are reporting-side and never enter artifacts, fingerprints or keys
# (PR 2: artifact bytes are deterministic, no timings inside).
from typing import Any, Iterable, Sequence

from repro.common.stable_hash import stable_digest, stable_mod
from repro.experiments.artifacts import ArtifactStore
from repro.experiments.base import ExperimentResult, jsonable
from repro.experiments.registry import EXPERIMENTS, SCENARIOS, run_experiment

PROTOCOLS = ("quick", "full")


@functools.lru_cache(maxsize=None)
def model_structure_fingerprint(model_name: str) -> int:
    """Structure fingerprint of a catalog model's graph.

    ``model_name`` is either a mini-model registry name (``mini_vggbn``)
    or a full-scale :data:`repro.models.catalog.MODEL_GRAPHS` name
    (``resnet50``), the registry a named ``PlanRequest`` builds from.
    Built at a canonical batch size: the fingerprint witnesses the
    *catalog topology* (ops, kinds, shapes, wiring) — a catalog change
    that reshapes the model re-keys every cell touching it.  Experiment-side graph parameters
    (scales, builder kwargs) are covered separately via
    ``ScenarioAxes.config``; other experiment-code changes are by design
    *not* part of the cache key — recompute with ``--no-cache`` or bump
    ``artifacts.ARTIFACT_FORMAT`` after changing experiment logic.
    """
    from repro.models import MODEL_GRAPHS, mini_model_graph
    from repro.models.trainable import MINI_MODELS

    if model_name in MINI_MODELS:
        dag = mini_model_graph(model_name, batch_size=16)
    elif model_name in MODEL_GRAPHS:
        dag = MODEL_GRAPHS[model_name](batch_size=16)
    else:
        raise KeyError(
            f"unknown model {model_name!r}: neither a mini-model registry "
            f"name nor a repro.models.catalog.MODEL_GRAPHS name"
        )
    return dag.structure_fingerprint()


@functools.lru_cache(maxsize=None)
def _experiment_accepts_seed(experiment_id: str) -> bool:
    """Whether the experiment's ``run`` takes an explicit ``seed`` kwarg.

    Cells forward their derived seed only to experiments that consume it —
    and only then does the seed participate in the cache fingerprint, so a
    different grid base seed never re-keys (and recomputes) cells whose
    results it cannot change.
    """
    import inspect

    try:
        params = inspect.signature(EXPERIMENTS[experiment_id]).parameters
    except (KeyError, TypeError, ValueError):
        return False
    return "seed" in params


@dataclasses.dataclass(frozen=True)
class ScenarioCell:
    """One independently executable point of the sweep grid."""

    experiment_id: str
    protocol: str
    models: tuple[str, ...]
    cluster: str
    seed: int
    variant: str = ""
    kwargs: tuple[tuple[str, Any], ...] = ()
    #: Experiment-declared code-independent configuration (graph scales,
    #: builder kwargs) — see ``ScenarioAxes.config``.
    config: tuple = ()

    @property
    def cell_id(self) -> str:
        parts = [self.experiment_id]
        if self.variant:
            parts.append(self.variant)
        parts.append(self.protocol)
        return ":".join(parts)

    def run_kwargs(self) -> dict[str, Any]:
        out = {"quick": self.protocol == "quick", **dict(self.kwargs)}
        if _experiment_accepts_seed(self.experiment_id):
            out.setdefault("seed", self.seed)
        return out

    def execute(self) -> ExperimentResult:
        """Run the underlying experiment (no caching at this level)."""
        return run_experiment(self.experiment_id, **self.run_kwargs())

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """JSON-safe cell descriptor (recorded inside artifacts)."""

        def best_effort(value: Any) -> Any:
            # kwargs/config may hold values canonical_encode accepts but
            # JSON cannot (enums); degrade to repr rather than crash the
            # store write for metadata that is informational only.
            try:
                return jsonable(value)
            except TypeError:
                return repr(value)

        return {
            "experiment_id": self.experiment_id,
            "protocol": self.protocol,
            "variant": self.variant,
            "models": list(self.models),
            "cluster": self.cluster,
            "seed": self.seed,
            "kwargs": best_effort(self.kwargs),
            "config": best_effort(self.config),
        }

    def fingerprint_inputs(self) -> dict[str, Any]:
        """The code-independent inputs the cache key digests."""
        return {
            "experiment": self.experiment_id,
            "protocol": self.protocol,
            "variant": self.variant,
            "cluster": self.cluster,
            # Only a *consumed* seed may move the cache key; see
            # _experiment_accepts_seed.
            "seed": self.seed if _experiment_accepts_seed(self.experiment_id) else None,
            "kwargs": self.kwargs,
            "config": self.config,
            "graphs": {
                name: model_structure_fingerprint(name) for name in self.models
            },
        }

    def fingerprint(self) -> str:
        """Stable content address of this cell (hex digest).

        Identical across processes and ``PYTHONHASHSEED`` values — the
        soundness condition for the artifact cache.
        """
        return stable_digest(self.fingerprint_inputs())


class ScenarioGrid:
    """Expands the scenario axes into deterministic cells.

    Parameters
    ----------
    experiments:
        Experiment ids to include (default: every registered experiment).
    protocols:
        Which protocol axes to expand (subset of ``("quick", "full")``).
    seed:
        Base seed; each cell derives its own seed from
        ``(base, experiment, variant, protocol)`` so cells are independent
        yet reproducible.  The derived seed is forwarded to (and
        fingerprinted for) experiments whose ``run`` accepts a ``seed``
        parameter; seed-blind experiments keep their cache keys.
    """

    def __init__(
        self,
        experiments: Sequence[str] | None = None,
        protocols: Sequence[str] = ("quick",),
        seed: int = 0,
    ) -> None:
        ids = sorted(EXPERIMENTS) if experiments is None else list(experiments)
        for eid in ids:
            if eid not in EXPERIMENTS:
                raise KeyError(
                    f"unknown experiment {eid!r}; available: {sorted(EXPERIMENTS)}"
                )
            if eid not in SCENARIOS:
                raise KeyError(f"experiment {eid!r} has no scenario axes")
        for protocol in protocols:
            if protocol not in PROTOCOLS:
                raise ValueError(
                    f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}"
                )
        self.experiments = tuple(ids)
        self.protocols = tuple(protocols)
        self.seed = seed

    def cells(self, filter: str | None = None) -> list[ScenarioCell]:
        """The grid's cells, optionally filtered by ``cell_id`` substring."""
        out: list[ScenarioCell] = []
        for eid in self.experiments:
            axes = SCENARIOS[eid]
            for protocol in self.protocols:
                for variant in axes.variants(protocol):
                    cell = ScenarioCell(
                        experiment_id=eid,
                        protocol=protocol,
                        models=variant.models,
                        cluster=axes.cluster,
                        seed=stable_mod(
                            (self.seed, eid, variant.label, protocol), 2**31 - 1
                        ),
                        variant=variant.label,
                        kwargs=variant.kwargs,
                        config=axes.config,
                    )
                    if filter is None or filter in cell.cell_id:
                        out.append(cell)
        return out


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _execute_cell(cell: ScenarioCell) -> tuple[dict[str, Any] | None, str | None, float]:
    """Run one cell; module-level so worker processes can unpickle it.

    Returns ``(result_payload, error, elapsed_seconds)`` — exactly one of
    payload/error is set.  Exceptions never propagate: a crashing cell must
    not take down its worker (or, serially, the rest of the sweep).
    """
    t0 = time.perf_counter()
    try:
        payload = cell.execute().to_json_dict()
        return payload, None, time.perf_counter() - t0
    except Exception:  # noqa: BLE001 - failure isolation is the contract
        return None, traceback.format_exc(), time.perf_counter() - t0


@dataclasses.dataclass
class CellOutcome:
    """What happened to one cell during a sweep."""

    cell: ScenarioCell
    fingerprint: str  # empty when the run bypassed the store (no-cache)
    status: str  # "cached" | "computed" | "failed"
    elapsed: float
    result: ExperimentResult | None = None
    error: str | None = None
    artifact: Any = None  # Path when the store persisted this cell

    @property
    def cell_id(self) -> str:
        return self.cell.cell_id


@dataclasses.dataclass
class SweepReport:
    """Aggregate outcome of one :meth:`SweepRunner.run`."""

    outcomes: list[CellOutcome]
    wall_seconds: float
    jobs: int

    def _with_status(self, status: str) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def cached(self) -> list[CellOutcome]:
        return self._with_status("cached")

    @property
    def computed(self) -> list[CellOutcome]:
        return self._with_status("computed")

    @property
    def failed(self) -> list[CellOutcome]:
        return self._with_status("failed")

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} cells: {len(self.computed)} computed, "
            f"{len(self.cached)} cached, {len(self.failed)} failed "
            f"({self.wall_seconds:.1f}s, jobs={self.jobs})"
        )


class SweepRunner:
    """Executes sweep cells with caching, timing, and failure isolation.

    Fingerprints are computed and artifacts are read/written in the parent
    process; workers only ever compute, so the store sees one writer per
    artifact and no cross-process coordination is needed.
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        jobs: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        #: ``None`` runs uncached: nothing is read from or written to disk.
        self.store = store
        self.jobs = jobs

    def run(
        self,
        cells: Iterable[ScenarioCell],
        on_outcome: Any = None,
    ) -> SweepReport:
        """Execute ``cells``; ``on_outcome(outcome)`` streams each
        :class:`CellOutcome` as it is produced (completion order under
        ``jobs > 1``) so long sweeps show progress before the report."""
        cells = list(cells)
        t0 = time.perf_counter()
        # Fingerprinting builds model graphs; skip it entirely when the
        # store is bypassed — nothing would read the keys.
        fingerprints = (
            [cell.fingerprint() for cell in cells]
            if self.store is not None
            else [""] * len(cells)
        )
        outcomes: list[CellOutcome | None] = [None] * len(cells)

        def emit(outcome: CellOutcome) -> CellOutcome:
            if on_outcome is not None:
                on_outcome(outcome)
            return outcome

        pending: list[int] = []
        for i, (cell, fp) in enumerate(zip(cells, fingerprints)):
            cached = None if self.store is None else self.store.load(cell, fp)
            if cached is not None:
                outcomes[i] = emit(CellOutcome(
                    cell, fp, "cached", 0.0, result=cached,
                    artifact=self.store.path_for(cell, fp),
                ))
            else:
                pending.append(i)

        if self.jobs > 1 and len(pending) > 1:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending))
            ) as pool:
                futures = {
                    pool.submit(_execute_cell, cells[i]): i for i in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    i = futures[future]
                    retried_after = None
                    try:
                        executed = future.result()
                    except Exception as exc:  # noqa: BLE001
                        # A worker died *hard* (OOM kill, segfault) —
                        # _execute_cell only isolates Python exceptions.
                        # Hard deaths are often environmental (a memory
                        # spike, a killed container child), not the cell's
                        # fault: retry the cell once serially in the parent
                        # before recording a failure, and remember the
                        # crash so the outcome discloses the retry.
                        retried_after = f"worker crashed: {exc!r}"
                        executed = _execute_cell(cells[i])
                    outcomes[i] = emit(
                        self._finish(
                            cells[i],
                            fingerprints[i],
                            executed,
                            retried_after=retried_after,
                        )
                    )
        else:
            for i in pending:
                outcomes[i] = emit(
                    self._finish(cells[i], fingerprints[i], _execute_cell(cells[i]))
                )

        done = [o for o in outcomes if o is not None]
        assert len(done) == len(cells)
        return SweepReport(done, time.perf_counter() - t0, self.jobs)

    def _finish(
        self,
        cell: ScenarioCell,
        fingerprint: str,
        executed: tuple[dict[str, Any] | None, str | None, float],
        retried_after: str | None = None,
    ) -> CellOutcome:
        payload, error, elapsed = executed
        if error is not None:
            if retried_after is not None:
                error = (
                    f"{retried_after}\nserial retry also failed:\n{error}"
                )
            return CellOutcome(cell, fingerprint, "failed", elapsed, error=error)
        # Serial and parallel runs both round-trip through the JSON payload,
        # so cached replays can never diverge from fresh computations.
        result = ExperimentResult.from_json_dict(payload)
        artifact = None
        if self.store is not None:
            artifact = self.store.save(cell, payload, fingerprint)
        if retried_after is not None:
            # Disclose the recovery on the in-memory result only — after
            # the store write, so retried and first-try artifacts stay
            # byte-identical.
            result.extras["sweep_retry"] = {"first_error": retried_after}
        return CellOutcome(
            cell, fingerprint, "computed", elapsed, result=result, artifact=artifact
        )
