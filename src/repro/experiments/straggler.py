"""Straggler scenarios — schedule policies under deterministic slowdowns.

Not a paper table: QSync assumes every device runs at its profiled speed,
but hybrid clusters drift — an inference GPU picks up a serving burst, an
edge node throttles, a link degrades (the ACE-Sync setting).  This
experiment feeds seed-derived :class:`~repro.engine.Perturbation`\\ s into
the Eq. (6) recurrence and measures how iteration time degrades under
each registered schedule policy.

The reproduction targets are *shapes*, pinned by the engine tests:

* synchronous data parallelism tracks the slowest rank — iteration time is
  bounded below by the perturbed straggler's compute time and grows
  monotonically with the straggler factor;
* DDP overlap never loses to blocking sync — hiding collectives behind the
  backward pass can only help, straggler or not;
* perturbations are ``PYTHONHASHSEED``-stable: every factor derives from
  :func:`repro.common.rng.derive_seed`, so one seed means one timeline.
"""

from __future__ import annotations

from repro.common.rng import derive_seed
from repro.engine import Perturbation
from repro.engine.policy import SCHEDULE_POLICIES
from repro.experiments.base import MINI_BERT, ExperimentResult, mini_bert_kw
from repro.session import PlanRequest, PlanSession

#: Sweep scenario axes derive this experiment's cache-key configuration
#: from these constants (the factor ladder, the policy list) and the
#: :data:`~repro.experiments.base.MINI_BERT` kwargs, so edits re-key cached
#: artifacts.
CLUSTER_PRESET = "cluster_a_4+4"

#: Straggler compute multipliers evaluated per policy (1.0 = only the
#: ambient jitter/drift below).
FACTORS = (1.0, 1.5, 2.0, 4.0)
#: Ambient perturbation around the straggler: every rank up to 2 % slow,
#: every bucket's collective up to 10 % over its priced duration.
COMPUTE_JITTER = 0.02
BANDWIDTH_DRIFT = 0.10


def run(
    quick: bool = True,
    seed: int = 0,
    session: PlanSession | None = None,
) -> ExperimentResult:
    ctx = (session or PlanSession()).prepare(
        PlanRequest(
            model=MINI_BERT,
            model_kwargs=mini_bert_kw(quick),
            cluster=CLUSTER_PRESET,
            profile_repeats=1 if quick else 2,
        )
    )
    replayer = ctx.replayer
    clean = replayer.simulate()
    # Slow down the highest-ranked (inference, already-slowest-NIC) worker.
    # Ranks are identities, possibly non-contiguous (PR 5) — select by rank
    # value, not by position in the worker tuple.
    straggler_rank = max(w.rank for w in ctx.cluster.workers)

    rows = []
    extras: dict[str, object] = {
        "straggler_rank": straggler_rank,
        "clean_iteration_seconds": clean.iteration_time,
    }
    for factor in FACTORS:
        pert = Perturbation(
            seed=derive_seed(seed, "straggler", factor),
            compute_jitter=COMPUTE_JITTER,
            bandwidth_drift=BANDWIDTH_DRIFT,
            stragglers={straggler_rank: factor},
        )
        # The slowest rank's perturbed compute time is the floor no
        # synchronous schedule can beat.
        slowest_bound = max(
            pert.perturb_local(replayer.local_dfg(w.rank), w.rank).compute_time
            for w in ctx.cluster.workers
        )
        for policy in SCHEDULE_POLICIES:
            sim = replayer.simulate(schedule_policy=policy, perturbation=pert)
            rows.append([
                policy,
                f"{factor:g}x",
                f"{sim.iteration_time * 1e3:.3f}",
                f"{sim.iteration_time / clean.iteration_time:.2f}x",
                "yes" if sim.iteration_time >= slowest_bound else "NO",
            ])
        extras[f"factor_{factor:g}"] = {
            "slowest_rank_bound_seconds": slowest_bound,
            "perturbation": pert.describe(),
        }

    return ExperimentResult(
        experiment_id="straggler",
        title="Schedule policies under deterministic straggler perturbations",
        headers=[
            "Policy", "Straggler", "Iter (ms)", "vs clean", "Tracks slowest",
        ],
        rows=rows,
        notes=(
            "Seed-derived perturbations on ClusterA: one inference rank is "
            "slowed by the straggler factor on top of ambient compute "
            "jitter and bandwidth drift.  Shapes to check: iteration time "
            "is bounded below by the perturbed slowest rank's compute time "
            "('tracks slowest'), grows with the factor, and ddp_overlap "
            "never loses to blocking_sync."
        ),
        extras=extras,
    )
