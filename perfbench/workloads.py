"""The four workloads: request streams, timed closed loops and oracles.

Every workload is a closed loop with one client: the next call is issued
only after the previous one returned.  A run is a whole number of *cycles*;
each cycle is generated from the seed (``repro.common.rng.derive_seed``) and,
for the request-mix workloads, holds every request kind a fixed number of
times in a seeded order, so the latency mix is the same in every run and only
the order (with serve_churn's duplicates and churn events) and the
profiling-noise seed change with ``--seed``.  Cycles repeat until the timed
wall time reaches ``--seconds``.

Only the public entry points are timed: ``PlanSession.plan/replan``,
``PlanService.plan_many/replan`` and ``SweepRunner.run`` (in a fresh
interpreter, see ``sweep_child.py``).  Checksums are taken between timed
calls; the oracles and the plan-quality numbers run after the last timed
call and after peak RSS is read, so neither timings nor memory include them.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from hostspeed import REFERENCE_S, ScaledClock
from repro.common.rng import derive_seed
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.hardware.events import ClusterEvent
from repro.profiling.stats import synthesize_stats
from repro.service import PlanService, request_fingerprint
from repro.session import PlanRequest, PlanSession

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (stores, sweep artifacts, trace files).
WORK_DIR = ROOT / ".perfbench_work"

#: The ROADMAP baseline mini-BERT configuration.
MINI_BERT = ("mini_bert", {"batch_size": 8, "width_scale": 16, "spatial_scale": 8})
MINI_VGG = ("mini_vgg", {"batch_size": 8, "width_scale": 16, "spatial_scale": 8})
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fresh-interpreter import repetitions per run (cheap, and noisier).
IMPORT_REPEATS = 5


def checksum(outcome) -> str:
    """The plan dict + ``iteration_time.hex()`` identity of one outcome."""
    text = json.dumps(outcome.plan.to_dict(), sort_keys=True)
    text += outcome.simulation.iteration_time.hex()
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


#: A fresh interpreter timing its own imports, then sampling the reference
#: task on the core it ran on (the parent's core says nothing about it).
_IMPORT_CHILD = """\
import time
t0 = time.perf_counter()
import {modules}
import_s = time.perf_counter() - t0
import sys
sys.path.insert(0, {here!r})
from hostspeed import reference_seconds
print(import_s, reference_seconds(), time.perf_counter() - t0)
"""


def import_seconds(modules: tuple[str, ...]) -> tuple[float, float]:
    """Median (raw, scaled) wall time of a fresh interpreter importing
    ``modules``: the process-start part of set-up, paid by every user
    process.  Interpreter start-up and exit (the parent's wall time minus
    the child's own) count raw; the imports are scaled by the reference
    speed the child measures right after them."""
    code = _IMPORT_CHILD.format(modules=", ".join(modules),
                                here=str(Path(__file__).parent))
    raw, scaled = [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=subprocess_env(), cwd=ROOT,
            check=True, timeout=60, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        import_s, ref, child_s = map(float, proc.stdout.split())
        start_exit = wall - child_s
        raw.append(start_exit + import_s)
        scaled.append(start_exit + import_s * REFERENCE_S / ref)
    return statistics.median(raw), statistics.median(scaled)


def plan_oracle(request: PlanRequest, profile_seed: int):
    """(key, oracle) for a plan: a direct cold session of the same request."""
    return request_fingerprint(request), lambda: checksum(
        PlanSession(profile_seed=profile_seed).plan(request)
    )


class Quality:
    """Plan quality of outcomes: predicted iteration time and the paper's
    objective, the summed variance-indicator loss of the precision plan
    (gradient-compression variance excluded).  Indicators are rebuilt from
    public functions, independent of the benchmarked program's caches."""

    def __init__(self) -> None:
        self._indicators: dict[Any, VarianceIndicator] = {}

    def _indicator(self, request: PlanRequest) -> VarianceIndicator:
        # Cache by recipe; opaque models and provided stats are rebuilt.
        recipe = request.model_cache_key()
        key = None
        if recipe is not None and request.stats is None:
            key = (recipe, request.seed, request.loss, request.batch_size)
            if key in self._indicators:
                return self._indicators[key]
        template = request.build_template()
        stats = request.stats
        if stats is None:
            stats = synthesize_stats(template, seed=request.seed)
        batch = request.batch_size
        if batch is None:
            batch = int(template.spec(template.root()).output_shape[0])
        gamma = gamma_for_loss(request.loss, batch)
        indicator = VarianceIndicator(template, stats, gamma)
        if key is not None:
            self._indicators[key] = indicator
        return indicator

    def loss(self, request: PlanRequest, plan) -> float:
        indicator = self._indicator(request)
        return sum(
            indicator.omega(op, precision)
            for ops in plan.assignments.values()
            for op, precision in ops.items()
        )


@dataclasses.dataclass
class Op:
    """One timed call: ``run(state)`` returns ``[(request, outcome, oracle
    key, oracle)]`` for the requests it served."""

    label: str
    run: Callable[[Any], list]
    requests: int
    #: Whether the served outcomes count toward the plan-quality metrics
    #: (replans do not: their requests follow the seeded event chain).
    quality: bool = True


@dataclasses.dataclass
class PassResult:
    """Everything one pass (set-up + timed cycles) measured.  Times are
    host-speed scaled (``hostspeed``); ``raw_*`` are the plain wall times."""

    latencies: list[float]
    raw_latencies: list[float]
    requests: int
    cycles: int
    setup_s: float
    raw_setup_s: float
    peak_rss_mb: float
    #: Indices of timed calls that raised or served a wrong outcome.
    failed_ops: set[int]
    #: Labels of the first cycle's ops (the seed's request stream).
    stream: list[str]
    #: Checksums of the first cycle's outcomes, in order.
    outcomes: list[str]
    #: (predicted iteration seconds, indicator loss) of the first cycle's
    #: distinct planned requests — the same kinds in every run.
    quality: list[tuple[float, float]]
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)


class Workload:
    """A workload: set-up, a seeded cycle generator and one timed call."""

    name = ""
    #: Modules a user process imports before its first call.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.profile_seed = derive_seed(seed, "perfbench", self.name, "profile")
        #: Oracle checksums by oracle key, shared by the passes of a run.
        self.reference: dict[Any, str] = {}

    def rng(self, *labels) -> random.Random:
        return random.Random(derive_seed(self.seed, "perfbench", self.name, *labels))

    def setup(self) -> Any:
        return None

    def teardown(self, state: Any) -> None:
        """Release what ``setup`` made (each discarded set-up, then the last)."""

    def cycle(self, state: Any, index: int) -> list[Op]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run_pass(self, seconds: float, cycles: int | None = None,
                 tracer=None) -> PassResult:
        """Set up (several times), then run cycles until ``seconds`` of timed
        wall time (or exactly ``cycles`` cycles) have passed."""
        warm: list[ScaledClock] = []
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                # Free the previous set-up first, or two live set-ups would
                # set the peak RSS.
                self.teardown(state)
                state = None
                gc.collect()
            clock = ScaledClock()
            clock.start()
            state = self.setup()
            clock.lap()
            warm.append(clock)
        latencies: list[float] = []
        raw_latencies: list[float] = []
        #: (call index, checksum, oracle key, oracle) of every served outcome.
        served: list[tuple[int, str, Any, Callable[[], str]]] = []
        #: (oracle key, request, plan, iteration seconds) of the first
        #: cycle's planned outcomes.
        planned: list[tuple[Any, PlanRequest, Any, float]] = []
        failed: set[int] = set()
        stream = [f"profile_seed={self.profile_seed}"]
        first_cycle_calls = 0
        requests = 0
        elapsed = 0.0
        done = 0
        while True:
            for op in self.cycle(state, done):
                index = len(latencies)
                clock = ScaledClock()
                clock.start()
                if tracer is not None:
                    tracer.request = index
                    tracer.active = True
                try:
                    results = op.run(state)
                except Exception as exc:  # noqa: BLE001 - counted as a failed op
                    results = []
                    failed.add(index)
                    print(f"[{self.name}] {op.label} raised {exc!r}", file=sys.stderr)
                if tracer is not None:
                    tracer.active = False
                clock.lap()
                elapsed += clock.raw
                latencies.append(clock.scaled)
                raw_latencies.append(clock.raw)
                requests += op.requests
                for request, outcome, key, oracle in results:
                    served.append((index, checksum(outcome), key, oracle))
                    if done == 0 and op.quality:
                        planned.append((key, request, outcome.plan,
                                        outcome.simulation.iteration_time))
                if done == 0:
                    stream.append(op.label)
            done += 1
            if done == 1:
                first_cycle_calls = len(latencies)
            if cycles is not None:
                if done >= cycles:
                    break
            elif elapsed >= seconds:
                break
        # Read before the oracles and the plan-quality work allocate.
        rss = peak_rss_mb()
        if tracer is not None:
            tracer.harvest_replayer()

        oracle_t0 = time.perf_counter()
        for index, digest_, key, oracle in served:
            if key not in self.reference:
                try:
                    self.reference[key] = oracle()
                except Exception as exc:  # noqa: BLE001 - fails the op
                    self.reference[key] = f"oracle raised {exc!r}"
            if self.reference[key] != digest_:
                failed.add(index)
                print(f"[{self.name}] call {index}: {digest_} != oracle "
                      f"{self.reference[key]}", file=sys.stderr)
        quality = Quality()
        plans: dict[Any, tuple[float, float]] = {}
        for key, request, plan, iteration_s in planned:
            if key not in plans:
                plans[key] = (iteration_s, quality.loss(request, plan))
        result = PassResult(
            latencies=latencies, raw_latencies=raw_latencies, requests=requests,
            cycles=done, setup_s=statistics.median(c.scaled for c in warm),
            raw_setup_s=statistics.median(c.raw for c in warm),
            peak_rss_mb=rss, failed_ops=failed,
            stream=stream,
            outcomes=[d for i, d, _, _ in served if i < first_cycle_calls],
            quality=list(plans.values()),
            extra={"oracle_s": time.perf_counter() - oracle_t0},
        )
        self.finish(state, result)
        self.teardown(state)
        return result

    def finish(self, state: Any, result: PassResult) -> None:
        """Hook: add workload counters to ``result.extra``."""

# ---------------------------------------------------------------------------
# whatif_warm
# ---------------------------------------------------------------------------


class WhatIfWarm(Workload):
    name = "whatif_warm"
    modules = ("repro.session",)
    DECKS = 2

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.cluster = "cluster_a_4+4" if tiny else "cluster_a_2x8+2x8"
        self.models = (MINI_BERT,) if tiny else (MINI_BERT, ("resnet50", {}))
        strategies = ("qsync", "qsync+qsgd") if tiny else (
            "qsync", "qsync+qsgd", "hessian", "random")
        collectives = (None,) if tiny else (None, "hierarchical")
        self.kinds = [
            PlanRequest(model=name, model_kwargs=kwargs, cluster=self.cluster,
                        strategy=s, collective_model=c, profile_repeats=2)
            for name, kwargs in self.models for s in strategies for c in collectives
        ]

    def setup(self) -> PlanSession:
        session = PlanSession(profile_seed=self.profile_seed)
        for model, kwargs in self.models:
            session.prepare(PlanRequest(model=model, model_kwargs=kwargs,
                                        cluster=self.cluster, profile_repeats=2))
        return session

    def cycle(self, session: PlanSession, index: int) -> list[Op]:
        # Several shuffled decks a cycle, so a run has a real tail and its
        # median covers a longer stretch of wall time.
        rng = self.rng("cycle", index)
        ops = []
        for _ in range(1 if self.tiny else self.DECKS):
            order = list(self.kinds)
            rng.shuffle(order)
            ops += [self._op(request) for request in order]
        return ops

    def _op(self, request: PlanRequest) -> Op:
        key, oracle = plan_oracle(request, self.profile_seed)

        def run(session):
            return [(request, session.plan(request), key, oracle)]
        return Op(f"plan {request.describe()} {request.collective_model}", run, 1)

    def finish(self, session, result) -> None:
        result.extra["session_stats"] = [session.stats]


# ---------------------------------------------------------------------------
# cold_start
# ---------------------------------------------------------------------------


class ColdStart(Workload):
    name = "cold_start"
    modules = ("repro.session",)
    DECKS = 2

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        # resnet50 and bert at batch sizes whose FP32 footprint overflows a
        # T4, so ``uniform`` walks its precision ladder to FP16/INT8.
        models = (MINI_BERT,) if tiny else (
            ("vgg16", {}), ("resnet50", {"batch_size": 256}),
            ("bert", {"batch_size": 64}), MINI_BERT)
        clusters = ("cluster_a_4+4",) if tiny else ("cluster_a_4+4", "cloud_edge_4+2x2")
        repeats = (2,) if tiny else (2, 3)
        self.kinds = [
            PlanRequest(model=m, model_kwargs=kw, cluster=c, strategy=s,
                        profile_repeats=r)
            for m, kw in models for c in clusters for s in ("uniform", "dpro")
            for r in repeats
        ]

    def setup(self) -> list:
        return []  # collects the per-request sessions' stats

    def cycle(self, stats: list, index: int) -> list[Op]:
        # Two shuffled decks a cycle: the fast and the slow half of the
        # kinds meet at the median, so it needs the larger sample.
        rng = self.rng("cycle", index)
        ops = []
        for _ in range(1 if self.tiny else self.DECKS):
            order = list(self.kinds)
            rng.shuffle(order)
            ops += [self._op(request) for request in order]
        return ops

    def _op(self, request: PlanRequest) -> Op:
        ps = self.profile_seed
        key, oracle = plan_oracle(request, ps)

        def run(stats):
            session = PlanSession(profile_seed=ps)
            outcome = session.plan(request)
            stats.append(session.stats)
            return [(request, outcome, key, oracle)]
        return Op(f"cold {request.describe()} r{request.profile_repeats}", run, 1)

    def finish(self, stats, result) -> None:
        result.extra["session_stats"] = stats


# ---------------------------------------------------------------------------
# serve_churn
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ServeState:
    root: str
    service: PlanService
    #: Pre-churn state the next replan starts from (request or context).
    chain: Any
    stats: list = dataclasses.field(default_factory=list)


class ServeChurn(Workload):
    name = "serve_churn"
    modules = ("repro.service",)
    #: A round is one plan_many batch (DISTINCT kinds dealt from a shuffled
    #: deck of all kinds, padded with duplicates to BATCH) and two replans.
    #: A cycle deals the deck three times, so every kind is planned equally
    #: often and only the order, the duplicates and the events vary by seed.
    DECKS = 3
    BATCH = 6
    DISTINCT = 4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        models = (MINI_VGG,) if tiny else (MINI_BERT, MINI_VGG)
        strategies = ("uniform", "qsync") if tiny else (
            "qsync", "uniform", "qsync+qsgd")
        self.kinds = [
            (m, kw, c, s)
            for m, kw in models for c in ("cloud_edge_4+2x2", "cluster_a_4+4")
            for s in strategies
        ]
        model, kwargs = MINI_VGG if tiny else MINI_BERT
        self.base = PlanRequest(model=model, model_kwargs=kwargs,
                                cluster="cloud_edge_4+2x2", profile_repeats=2)

    def setup(self) -> ServeState:
        # The event stream tracks membership itself, from the events it
        # generated, so both passes of a traced run replay the same events.
        self._events = self.rng("events")
        self._members = {w.rank: w for w in self.base.resolve_cluster().workers}
        self._retired: list = []
        self._degraded: set[int] = set()
        self._replans = 0
        self._batches = 0
        WORK_DIR.mkdir(exist_ok=True)
        root = tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR)
        return ServeState(
            root=root,
            service=PlanService(root=root, profile_seed=self.profile_seed),
            chain=self.base,
        )

    def cycle(self, state: ServeState, index: int) -> list[Op]:
        rng = self.rng("cycle", index)
        ops = []
        for _ in range(1 if self.tiny else self.DECKS):
            deck = list(self.kinds)
            rng.shuffle(deck)
            for start in range(0, len(deck), self.DISTINCT):
                kinds = deck[start:start + self.DISTINCT]
                picks = kinds + [rng.choice(kinds)
                                 for _ in range(self.BATCH - len(kinds))]
                rng.shuffle(picks)
                ops.append(self._batch_op(picks))
                ops.append(self._replan_op(self._next_events()))
                ops.append(self._replan_op(self._next_events()))
        return ops

    def _batch_op(self, picks) -> Op:
        # Restart once, mid-cycle and after every kind was planned once: the
        # batch lands on a new service over the same root (memory empty,
        # disk warm).
        per_cycle = (1 if self.tiny else self.DECKS) * len(self.kinds) // self.DISTINCT
        restart = self._batches == max(len(self.kinds) // self.DISTINCT, per_cycle // 2)
        self._batches += 1
        # Fresh, content-equal request objects: duplicates coalesce on
        # content, never on identity.
        requests = [
            PlanRequest(model=m, model_kwargs=dict(kw), cluster=c, strategy=s,
                        profile_repeats=2)
            for m, kw, c, s in picks
        ]
        oracles = [plan_oracle(r, self.profile_seed) for r in requests]

        def run(state: ServeState):
            if restart:
                state.stats.append(state.service.stats)
                state.service = PlanService(root=state.root,
                                            profile_seed=self.profile_seed)
            outcomes = state.service.plan_many(requests)
            return [(r, o, key, oracle)
                    for r, o, (key, oracle) in zip(requests, outcomes, oracles)]
        label = "plan_many " + ",".join(f"{m}/{c}/{s}" for m, _, c, s in picks)
        return Op(label + (" after restart" if restart else ""), run, len(picks))

    def _replan_op(self, events: tuple) -> Op:
        ps = self.profile_seed
        self._replans += 1
        key = ("replan", self._replans)

        def run(state: ServeState):
            before = state.chain
            prev = before if isinstance(before, PlanRequest) else before.request
            replan = state.service.replan(before, events)
            state.chain = replan.context
            return [(replan.context.request, replan.outcome, key,
                     lambda: checksum(
                         PlanSession(profile_seed=ps).replan(prev, events).outcome))]
        return Op("replan " + "; ".join(e.describe() for e in events), run, 1,
                  quality=False)

    def _next_events(self) -> tuple:
        """One seeded leave/join/degrade, valid on the membership the earlier
        events left.  Every device type keeps a member; a rank degrades at
        most once until it leaves."""
        rng = self._events
        members = self._members
        per_type: dict[str, int] = {}
        for w in members.values():
            per_type[w.device.name] = per_type.get(w.device.name, 0) + 1
        leavable = sorted(r for r, w in members.items() if per_type[w.device.name] > 1)
        fresh = sorted(r for r in members if r not in self._degraded)
        choices = []
        if len(members) > 5 and leavable:
            choices.append("leave")
        if self._retired:
            choices.append("join")
        if fresh:
            choices.append("degrade")
        kind = rng.choice(choices)
        if kind == "leave":
            rank = rng.choice(leavable)
            self._retired.append(members.pop(rank))
            self._degraded.discard(rank)
            return (ClusterEvent(0.0, "leave", rank),)
        if kind == "join":
            worker = self._retired.pop(rng.randrange(len(self._retired)))
            members[worker.rank] = worker
            return (ClusterEvent(0.0, "join", worker.rank, device=worker.device,
                                 link_bandwidth=worker.link_bandwidth),)
        rank = rng.choice(fresh)
        self._degraded.add(rank)
        factor = round(1.1 + rng.random(), 3)
        return (ClusterEvent(0.0, "degrade", rank, factor=factor),)

    def finish(self, state: ServeState, result: PassResult) -> None:
        state.stats.append(state.service.stats)
        result.extra["session_stats"] = state.stats

    def teardown(self, state: ServeState) -> None:
        shutil.rmtree(state.root, ignore_errors=True)


# ---------------------------------------------------------------------------
# sweep_quick
# ---------------------------------------------------------------------------


class SweepQuick(Workload):
    name = "sweep_quick"
    modules = ("repro.experiments.registry",)
    #: Two passes of the same seed still differ by 5-10% on a drifting host
    #: (fig8, about 40% of a pass, is vectorised numpy; see sweep_child.py),
    #: so a run reports the mean of two.
    MIN_PASSES = 2

    def run_pass(self, seconds: float, cycles: int | None = None,
                 tracer=None) -> PassResult:
        """One child interpreter runs uncached sweep passes into empty
        artifact stores, then a cached pass as the oracle.  A pass is one
        cycle and one timed call (``SweepRunner.run``) serving every cell."""
        cmd = [sys.executable, str(Path(__file__).with_name("sweep_child.py")),
               "--seed", str(self.seed), "--seconds", str(seconds)]
        if cycles is not None:
            cmd += ["--passes", str(cycles)]
        else:
            cmd += ["--min-passes", str(1 if self.tiny else self.MIN_PASSES)]
        if tracer is not None:
            cmd += ["--trace"]
        if self.tiny:
            cmd += ["--tiny"]
        proc = subprocess.run(cmd, env=subprocess_env(), cwd=ROOT, timeout=170,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"sweep child exited with {proc.returncode}")
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        if tracer is not None:
            tracer.merge(data["aggregates"], data["counters"], data["root_seconds"],
                         data["spans"])
        # Oracle: every cell computed (a failed cell is not stored, so its
        # cached replay fails again and would look equal), and the cached
        # pass replays every cell equal to the computed result.
        n_cells = data["cells_per_pass"]
        failed = {
            index // n_cells
            for index, (cell, status, digest_) in enumerate(data["cells"])
            if status != "computed" or data["cached"].get(cell) != ["cached", digest_]
        }
        return PassResult(
            latencies=data["pass_seconds"], raw_latencies=data["raw_pass_seconds"],
            requests=len(data["cells"]), cycles=len(data["pass_seconds"]),
            setup_s=0.0, raw_setup_s=0.0,
            peak_rss_mb=data["rss_mb"], failed_ops=failed,
            stream=[f"grid_seed={data['grid_seed']}"]
            + [cell for cell, _, _ in data["cells"][:n_cells]],
            outcomes=[digest_ or status for _, status, digest_ in data["cells"][:n_cells]],
            quality=[tuple(q) for q in data["quality"]],
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WhatIfWarm, ColdStart, ServeChurn, SweepQuick)
}
