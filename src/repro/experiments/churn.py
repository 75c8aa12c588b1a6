"""Elastic-membership scenarios — churn traces over the cloud-edge cluster.

Not a paper table: QSync plans for a fixed hybrid cluster, but the
cloud-edge deployments it targets (the ACE-Sync setting, PAPERS.md) lose
and regain workers mid-run.  This experiment drives seed-derived
:class:`~repro.hardware.events.ClusterEvent` traces through
:func:`~repro.engine.simulate_with_churn` and measures how the
epoch-segmented run degrades — and how cheap each membership boundary is
(re-plan profiling events must stay zero on already-profiled device
types).

Shapes to check, pinned by ``tests/test_elastic.py``:

* every boundary re-plan over warm profiles costs **zero** new profiling
  events (both device types are profiled by the clean pre-pass);
* a ``degrade`` segment never beats the clean iteration time (slowing a
  rank cannot help synchronous training), while ``leave`` segments may run
  *faster* — shedding the WAN-attached edge stragglers shrinks the
  synchronous critical path;
* traces are ``PYTHONHASHSEED``-stable — every rank pick, time, and factor
  derives from :func:`repro.common.rng.derive_seed`;
* the ``collapse`` trace crosses the quorum and is reported as a graceful
  :class:`~repro.common.errors.QuorumLostError` row, never a crash.
"""

from __future__ import annotations

from typing import Callable

from repro.common.errors import QuorumLostError
from repro.common.rng import derive_seed, new_rng
from repro.engine import simulate_with_churn
from repro.experiments.base import MINI_BERT, ExperimentResult, mini_bert_kw
from repro.hardware.cluster import Cluster, get_cluster_preset
from repro.hardware.events import ClusterEvent
from repro.session import PlanRequest, PlanSession

#: Sweep scenario axes derive this experiment's cache-key configuration
#: from these constants (the trace list, the quorum) and the
#: :data:`~repro.experiments.base.MINI_BERT` kwargs, so edits re-key cached
#: artifacts.
#: The ACE-Sync habitat: one A100 cloud node + T4 edge nodes over a WAN.
CLUSTER_PRESET = "cloud_edge_4+2x2"

#: Iteration budget of one segmented run.
ITERATIONS = 24
FULL_ITERATIONS = 60
#: Minimum surviving membership: the cloud node must stay whole.  The
#: ``collapse`` trace deliberately crosses this.
QUORUM = 4


def _edge_ranks(cluster: Cluster) -> list[int]:
    return [w.rank for w in cluster.workers if w.device.name == "T4"]


def _cloud_ranks(cluster: Cluster) -> list[int]:
    return [w.rank for w in cluster.workers if w.device.name != "T4"]


def _edge_flap(
    cluster: Cluster, seed: int, run_s: float
) -> tuple[ClusterEvent, ...]:
    """One edge worker drops out and rejoins later in the run."""
    rng = new_rng(seed)
    edges = _edge_ranks(cluster)
    rank = edges[int(rng.integers(len(edges)))]
    worker = {w.rank: w for w in cluster.workers}[rank]
    t_leave = run_s * float(0.2 + 0.1 * rng.uniform())
    t_join = run_s * float(0.6 + 0.1 * rng.uniform())
    return (
        ClusterEvent(t_leave, "leave", rank),
        ClusterEvent(
            t_join,
            "join",
            rank,
            device=worker.device,
            link_bandwidth=worker.link_bandwidth,
        ),
    )


def _rolling_degrade(
    cluster: Cluster, seed: int, run_s: float
) -> tuple[ClusterEvent, ...]:
    """Two edge workers throttle at staggered times (no membership change)."""
    rng = new_rng(seed)
    edges = _edge_ranks(cluster)
    picks = sorted(
        int(r) for r in rng.choice(edges, size=min(2, len(edges)), replace=False)
    )
    events = []
    t = run_s * 0.25
    for rank in picks:
        factor = float(1.5 + 1.5 * rng.uniform())
        events.append(ClusterEvent(t, "degrade", rank, factor=factor))
        t += run_s * 0.25
    return tuple(events)


def _shrink(
    cluster: Cluster, seed: int, run_s: float
) -> tuple[ClusterEvent, ...]:
    """Edge workers leave one by one; the cloud node (= quorum) survives."""
    rng = new_rng(seed)
    edges = _edge_ranks(cluster)
    t = run_s * float(0.15 + 0.05 * rng.uniform())
    step = (run_s * 0.7) / max(1, len(edges))
    events = []
    for rank in edges:
        events.append(ClusterEvent(t, "leave", rank))
        t += step
    return tuple(events)


def _collapse(
    cluster: Cluster, seed: int, run_s: float
) -> tuple[ClusterEvent, ...]:
    """Edge then cloud workers leave in quick succession — crosses the quorum.

    Timestamps stay in the first fifth of the run on purpose: leaves *speed
    up* the survivors, so a tail-loaded trace can finish its iteration
    budget before the breaking leave falls due and whether the quorum row
    appears becomes a seed lottery.  Front-loaded, the breaking leave lands
    while most of the budget is still ahead for every seed.
    """
    rng = new_rng(seed)
    t = run_s * float(0.05 + 0.05 * rng.uniform())
    step = run_s * 0.02
    events = []
    doomed = _edge_ranks(cluster) + _cloud_ranks(cluster)[: max(1, QUORUM // 2)]
    for rank in doomed:
        events.append(ClusterEvent(t, "leave", rank))
        t += step
    return tuple(events)


#: Named, seed-derived churn trace generators:
#: ``(cluster, derived seed, run seconds) -> events``.  The names are sweep
#: axes (see ``registry.SCENARIOS["churn"]``) — renaming one re-keys its
#: cached artifacts.
TRACES: dict[str, Callable[[Cluster, int, float], tuple[ClusterEvent, ...]]] = {
    "edge_flap": _edge_flap,
    "rolling_degrade": _rolling_degrade,
    "shrink": _shrink,
    "collapse": _collapse,
}


def run(
    quick: bool = True,
    seed: int = 0,
    traces: tuple[str, ...] | None = None,
    session: PlanSession | None = None,
) -> ExperimentResult:
    iterations = ITERATIONS if quick else FULL_ITERATIONS
    session = session or PlanSession()
    request = PlanRequest(
        model=MINI_BERT,
        model_kwargs=mini_bert_kw(quick),
        cluster=CLUSTER_PRESET,
        profile_repeats=1 if quick else 2,
    )
    cluster = get_cluster_preset(CLUSTER_PRESET)

    # Clean pre-pass: profiles both device types once and anchors the
    # simulated run length the trace generators scale their timestamps to.
    clean = session.prepare(request).replayer.simulate()
    run_s = iterations * clean.iteration_time

    rows = []
    extras: dict[str, object] = {
        "cluster": cluster.describe(),
        "quorum": QUORUM,
        "iterations": iterations,
        "clean_iteration_seconds": clean.iteration_time,
    }
    for name in traces if traces is not None else tuple(TRACES):
        events = TRACES[name](cluster, derive_seed(seed, "churn", name), run_s)
        profile_before = session.stats.profile_events
        try:
            segrun = simulate_with_churn(
                session, request, events, iterations, quorum=QUORUM
            )
        except QuorumLostError as err:
            rows.append([
                name, str(len(events)), "-", "-", "-", f"quorum lost ({QUORUM})",
            ])
            extras[f"trace_{name}"] = {
                "events": [e.describe() for e in events],
                "quorum_lost": str(err),
            }
            continue
        new_profiling = session.stats.profile_events - profile_before
        mean_vs_clean = segrun.mean_iteration_s / clean.iteration_time
        rows.append([
            name,
            str(len(events)),
            str(segrun.n_segments),
            f"{segrun.simulated_s * 1e3:.2f}",
            f"{mean_vs_clean:.2f}x",
            "0" if new_profiling == 0 else f"RE-PROFILED({new_profiling})",
        ])
        extras[f"trace_{name}"] = {
            "events": [e.describe() for e in events],
            "segments": [seg.describe() for seg in segrun.segments],
            "unapplied": [e.describe() for e in segrun.unapplied_events],
            "new_profile_events": new_profiling,
        }

    return ExperimentResult(
        experiment_id="churn",
        title="Elastic membership: churn traces, incremental re-planning",
        headers=[
            "Trace", "Events", "Segments", "Simulated (ms)", "vs clean",
            "New profiling",
        ],
        rows=rows,
        notes=(
            "Seed-derived churn traces on the cloud-edge cluster, replayed "
            "as epoch-segmented runs with an incremental re-plan at every "
            "membership boundary.  Shapes to check: 'New profiling' stays 0 "
            "(both device types are warm after the clean pre-pass), degrade "
            "segments run no faster than clean (leaves may — shedding slow "
            "edge workers shortens the synchronous critical path), and the "
            "collapse trace reports a graceful quorum-lost row."
        ),
        extras=extras,
    )
