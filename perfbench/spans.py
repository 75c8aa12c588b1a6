"""Span tracing from outside the program: wrap public functions, time them.

The traced run patches each layer's public functions where they are bound
(module globals that alias the function, or the class attribute for
methods), records one span per call and folds every call into per-name
aggregates: call count, total time and self time (the span's duration minus
the time its child spans cover).  Nothing under ``src/`` knows about it;
:meth:`Tracer.installed` restores every original on exit.

Two span kinds keep memory bounded:

* recorded spans (layer boundaries, at most thousands per run) keep
  ``(id, parent, name, start, end, request)`` in :attr:`Tracer.spans`;
* hot spans (``backend.measure``, ``core.cost_mapper.refresh``, ... called up
  to 10^5 times a run) only feed the aggregates, but still sit on the span
  stack so their parents' self time stays exact.

Count-only probes (``graph.set_precision``, ``core.replayer.apply_plan``)
count calls and add no timing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable

#: Span name for a ``ScenarioCell.execute`` call, one per experiment id.
CELL_PREFIX = "experiments.cell."
#: Spans of the timed entry points; ``trace.coverage`` counts their self
#: time as time the layer probes do not account for.
ENTRY_SPANS = (
    "session.plan", "session.replan", "service.plan", "service.plan_many",
    "service.replan", "experiments.sweep",
)

# (span name, "module:attr" targets, mode).  mode: "span" = recorded span,
# "hot" = aggregated span, "count" = call count only.
PROBES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("session.plan", ("repro.session.session:PlanSession.plan",), "span"),
    ("session.replan", ("repro.session.session:PlanSession.replan",), "span"),
    ("session.prepare", ("repro.session.session:PlanSession.prepare",), "span"),
    ("graph.build_template",
     ("repro.session.request:PlanRequest.build_template",), "span"),
    ("graph.dag_copy", ("repro.graph.dag:PrecisionDAG.copy",), "hot"),
    ("graph.set_precision",
     ("repro.graph.dag:PrecisionDAG.set_precision",), "count"),
    ("profiling.catalog_lookup",
     ("repro.session.profiles:ProfileStore.catalog_for",), "count"),
    ("profiling.catalog",
     ("repro.profiling.profiler:profile_operator_costs",), "span"),
    ("profiling.cast_fit",
     ("repro.profiling.casting:CastCostCalculator.__init__",), "span"),
    ("profiling.stats", ("repro.profiling.stats:synthesize_stats",), "span"),
    ("profiling.persist.encode", (
        "repro.profiling.persistence:catalog_to_dict",
        "repro.profiling.persistence:cast_calc_to_dict",
        "repro.profiling.persistence:stats_to_dict",
    ), "span"),
    ("profiling.persist.decode", (
        "repro.profiling.persistence:catalog_from_dict",
        "repro.profiling.persistence:cast_calc_from_dict",
        "repro.profiling.persistence:stats_from_dict",
    ), "span"),
    ("profiling.memory_model",
     ("repro.profiling.memory:MemoryModel.estimate",), "hot"),
    ("backend.measure", (
        "repro.backend.lp_backend:LPBackend.measure_op_forward",
        "repro.backend.lp_backend:LPBackend.measure_op_backward",
        "repro.backend.lp_backend:LPBackend.measure_cast",
    ), "hot"),
    ("core.allocate", ("repro.core.allocator:Allocator.allocate",), "span"),
    ("core.replayer.simulate", ("repro.core.replayer:Replayer.simulate",), "hot"),
    ("core.replayer.memory_estimate",
     ("repro.core.replayer:Replayer.memory_estimate",), "hot"),
    ("core.replayer.whatif",
     ("repro.core.replayer:Replayer.whatif_candidates",), "hot"),
    ("core.replayer.apply_plan",
     ("repro.core.replayer:Replayer.apply_plan",), "count"),
    ("core.cost_mapper.refresh",
     ("repro.core.cost_mapper:CostMapper.refresh",), "hot"),
    ("core.compression",
     ("repro.core.compression:allocate_compression",), "span"),
    ("kernel.evaluate", ("repro.kernel.compiled:evaluate",), "hot"),
    ("kernel.simulate_batch", ("repro.kernel.batch:simulate_batch",), "hot"),
    ("kernel.compile", (
        "repro.kernel.compiled:compile_local",
        "repro.kernel.compiled:compile_global",
    ), "hot"),
    ("engine.execute", ("repro.engine.core:execute_global_dfg",), "hot"),
    ("engine.churn", ("repro.engine.segments:simulate_with_churn",), "span"),
    ("baselines.uniform",
     ("repro.baselines.uniform:uniform_precision_plan",), "span"),
    ("baselines.dpro", ("repro.baselines.dpro:DproReplayer.simulate",), "span"),
    ("baselines.ground_truth",
     ("repro.core.simulator:GroundTruthSimulator.run",), "span"),
    ("hardware.apply_events", ("repro.hardware.events:apply_events",), "span"),
    ("service.plan", ("repro.service.service:PlanService.plan",), "span"),
    ("service.plan_many", ("repro.service.service:PlanService.plan_many",), "span"),
    ("service.replan", ("repro.service.service:PlanService.replan",), "span"),
    ("service.fingerprint",
     ("repro.service.fingerprint:request_fingerprint",), "span"),
    ("experiments.sweep", ("repro.experiments.sweep:SweepRunner.run",), "span"),
    ("experiments.fingerprint",
     ("repro.experiments.sweep:ScenarioCell.fingerprint",), "span"),
    ("experiments.artifact_save",
     ("repro.experiments.artifacts:ArtifactStore.save",), "span"),
    ("experiments.artifact_load",
     ("repro.experiments.artifacts:ArtifactStore.load",), "span"),
    (CELL_PREFIX, ("repro.experiments.sweep:ScenarioCell.execute",), "span"),
    ("tensor.backward", ("repro.tensor.tensor:Tensor.backward",), "hot"),
    ("train.step", (
        "repro.train.optim:SGD.step",
        "repro.train.optim:Adam.step",
    ), "hot"),
)


class Tracer:
    """In-memory span recorder with exact self-time accounting."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        #: Recorded spans: (id, parent id or -1, name, start, end, request).
        self.spans: list[tuple[int, int, str, float, float, Any]] = []
        #: name -> [calls, total seconds, self seconds]
        self.aggregates: dict[str, list[float]] = {}
        #: Count-only probes and result-derived counters.
        self.counters: dict[str, float] = {}
        #: Sum of root-span durations (spans opened with an empty stack).
        self.root_seconds = 0.0
        #: Spans recorded (and written out) by a merged child process.
        self.child_spans = 0
        #: Request id stamped on spans; the workload sets it per timed call.
        self.request: Any = None
        # Open frames: [name, start, child seconds, span id, recorded parent].
        self._stack: list[list] = []
        self._next_id = 0
        #: Replayer of the most recently prepared context (see harvest).
        self.live_replayer = None
        #: Wrappers pass straight through while False: only the workload's
        #: timed calls are traced, never set-up, checksums or oracles.
        self.active = False

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- span protocol -------------------------------------------------
    def _enter(self, name: str, recorded: bool) -> list:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        if recorded:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent  # children of a hot span attach to its parent
        frame = [name, 0.0, 0.0, span_id, parent]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, frame: list, recorded: bool) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        name, start, child, span_id, parent = frame
        duration = end - start
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if stack:
            stack[-1][2] += duration
        else:
            self.root_seconds += duration
        if recorded:
            self.spans.append((span_id, parent, name, start, end, self.request))

    # -- wrappers ------------------------------------------------------
    def wrap(self, name: str, fn: Callable, mode: str) -> Callable:
        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    self.count(name)
                return fn(*args, **kwargs)
            return counted

        recorded = mode == "span"
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name + args[0].experiment_id if name == CELL_PREFIX else name
            frame = self._enter(span, recorded)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, recorded)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, probes=PROBES):
        """Patch every probe target where it is bound; restore on exit."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for name, targets, mode in probes:
                for target in targets:
                    undo.extend(self._patch(target, name, mode))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch(self, target: str, name: str, mode: str):
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, mode))
            return [(owner, attr, original)]
        original = getattr(module, qualname)
        wrapper = self.wrap(name, original, mode)
        patched = []
        # A `from x import f` copies the binding, so patch every repro
        # module global that aliases the function (e.g. the kernel names
        # imported into repro.core.replayer).
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
        return patched

    def harvest_replayer(self) -> None:
        """Add the live replayer's cost-mapper and kernel counters.  They keep
        growing while its context is planned, so they are read when the next
        context is prepared and once more when the traced pass ends."""
        replayer, self.live_replayer = self.live_replayer, None
        if replayer is None:
            return
        self.count("core.cost_mapper.full_rebuilds", replayer.full_rebuilds())
        self.count(
            "core.cost_mapper.incremental_updates",
            replayer.incremental_updates(),
        )
        self.count("core.replayer.kernel_sims", replayer.stats.kernel_sims)

    # -- results -------------------------------------------------------
    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        fields = ("id", "parent", "name", "start", "end", "request")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")

    def busy(self, name: str) -> float:
        agg = self.aggregates.get(name)
        return agg[2] if agg else 0.0

    def calls(self, name: str) -> int:
        agg = self.aggregates.get(name)
        return int(agg[0]) if agg else int(self.counters.get(name, 0))

    def merge(self, aggregates: dict, counters: dict, root_seconds: float,
              spans: int) -> None:
        """Fold another tracer's results (a sweep child process) into this one."""
        self.child_spans += spans
        for name, (calls, total, self_s) in aggregates.items():
            agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in counters.items():
            self.count(name, value)
        self.root_seconds += root_seconds


# ---------------------------------------------------------------------------
# result observers: counters read at the layer boundary that produced them
# ---------------------------------------------------------------------------


def _observe_allocate(tracer: Tracer, args, result) -> None:
    _plan, report = result
    tracer.count("core.recovery.attempts", report.recovery_attempts)
    tracer.count("core.recovery.accepted", report.recovery_accepted)


def _observe_compression(tracer: Tracer, args, result) -> None:
    _levels, report = result
    tracer.count("core.compression.attempted", report.steps_attempted)
    tracer.count("core.compression.accepted", report.steps_accepted)


def _observe_prepare(tracer: Tracer, args, ctx) -> None:
    tracer.harvest_replayer()
    tracer.live_replayer = ctx.replayer


_OBSERVERS: dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "core.allocate": _observe_allocate,
    "core.compression": _observe_compression,
    "session.prepare": _observe_prepare,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Experiments of the sweep_quick grid, one ``experiments.cell.*`` metric each.
CELL_EXPERIMENTS = (
    "churn", "comm", "compress", "fig4", "fig6", "fig7", "fig8", "straggler",
    "table1", "table3",
)
_CALLS_AND_BUSY = (
    "session.prepare", "graph.dag_copy", "profiling.catalog",
    "profiling.memory_model", "backend.measure", "core.allocate",
    "core.replayer.simulate", "core.replayer.memory_estimate",
    "core.replayer.whatif", "core.cost_mapper.refresh", "kernel.evaluate",
    "kernel.simulate_batch", "kernel.compile", "engine.execute",
    "tensor.backward",
)
_BUSY = (
    "graph.build_template", "profiling.cast_fit", "profiling.stats",
    "core.compression", "engine.churn", "baselines.uniform", "baselines.dpro",
    "baselines.ground_truth", "hardware.apply_events", "service.plan_many",
    "service.replan", "service.fingerprint", "experiments.fingerprint",
    "experiments.artifact_save", "experiments.artifact_load", "train.step",
) + tuple(CELL_PREFIX + eid for eid in CELL_EXPERIMENTS)
_COUNTS = (
    "graph.set_precision", "core.replayer.apply_plan",
)
_COUNTERS = (
    "core.recovery.attempts", "core.cost_mapper.full_rebuilds",
    "core.cost_mapper.incremental_updates", "core.replayer.kernel_sims",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, session_stats, traced_s: float,
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass, as ``name -> (value, unit)``.

    ``traced_s``/``untraced_s`` are the timed wall times of the traced pass
    and of the untraced pass before it (same seed, same cycles);
    ``session_stats`` are the ``SessionStats`` of the sessions the workload
    drove, if it has them.
    """
    t = tracer
    m: dict[str, tuple[float, str]] = {}
    for name in _CALLS_AND_BUSY:
        m[name + ".calls"] = (t.calls(name), "count")
        m[name + ".busy_s"] = (t.busy(name), "s")
    for name in _BUSY:
        m[name + ".busy_s"] = (t.busy(name), "s")
    for name in _COUNTS:
        m[name + ".calls"] = (t.calls(name), "count")
    for name in _COUNTERS:
        m[name] = (t.counters.get(name, 0), "count")
    m["session.self_s"] = (t.busy("session.plan") + t.busy("session.replan"), "s")
    m["profiling.catalog.hit_ratio"] = (
        1.0 - _ratio(t.calls("profiling.catalog"),
                     t.counters.get("profiling.catalog_lookup", 0))
        if t.counters.get("profiling.catalog_lookup") else 0.0,
        "ratio",
    )
    m["profiling.persist.encode_s"] = (t.busy("profiling.persist.encode"), "s")
    m["profiling.persist.decode_s"] = (t.busy("profiling.persist.decode"), "s")
    m["core.recovery.accept_ratio"] = (_ratio(
        t.counters.get("core.recovery.accepted", 0),
        t.counters.get("core.recovery.attempts", 0)), "ratio")
    m["core.compression.accept_ratio"] = (_ratio(
        t.counters.get("core.compression.accepted", 0),
        t.counters.get("core.compression.attempted", 0)), "ratio")
    m["service.self_s"] = (
        t.busy("service.plan") + t.busy("service.plan_many")
        + t.busy("service.replan"), "s",
    )
    coalesced = sum(s.coalesced_requests for s in session_stats)
    m["service.coalesced_ratio"] = (
        _ratio(coalesced, coalesced + t.calls("service.plan")), "ratio")
    hits = sum(s.disk_hits for s in session_stats)
    misses = sum(s.disk_misses for s in session_stats)
    m["service.disk_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    # Uncovered: timed time outside every span, and the self time of the
    # entry points, which no layer probe below them explains.
    uncovered = traced_s - t.root_seconds + sum(t.busy(n) for n in ENTRY_SPANS)
    m["trace.coverage"] = (1.0 - _ratio(uncovered, traced_s), "ratio")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m
