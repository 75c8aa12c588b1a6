"""Compiled array kernel (``repro.kernel``): bit parity with the analytic
Eq. (6) oracle, batched what-if parity, dispatch and caching, frozen
buffers, hash-seed stability, and the one dispatch rule
(:func:`repro.engine.policy.eq6_fast_path`) that keeps perturbed plans on
their throughput floor.

The contract under test (the PR 8 discipline): the kernel is an
equality-preserving cache — every number it produces must equal the
analytic object path bit-for-bit, with no tolerance, on arbitrary global
DFGs and on the real profiled models.  Batched what-if rows must equal the
sequential apply → simulate → revert trial of the same candidate, row for
row, and reverting must restore the base bitwise.
"""

import copy
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.dtypes import Precision, higher_precision
from repro.common.rng import new_rng
from repro.core.allocator import Allocator, AllocatorConfig
from repro.core.indicator import VarianceIndicator
from repro.core.replayer import Replayer, bucket_comm_durations
from repro.engine import (
    BlockingSyncPolicy,
    DDPOverlapPolicy,
    Perturbation,
    eq6_fast_path,
)
from repro.engine.core import execute_global_dfg
from repro.hardware import T4, make_cluster_a
from repro.kernel import (
    compile_global,
    compile_local,
    evaluate,
)
from repro.models import mini_model_graph
from repro.parallel.comm_model import resolve_collective_model
from repro.session import PlanRequest, PlanSession
from repro.session.planners import get_planner
from tests.test_engine import _cluster, _per_rank_gdfg, _random_gdfg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.bench_allocator_speed import SMALL_SETUP, _build_allocator


def _compile_gdfg(gdfg, cluster, collective_model=None):
    """Lower a GlobalDFG the way the Replayer's kernel tier does."""
    model = resolve_collective_model(collective_model)
    durs = bucket_comm_durations(gdfg.locals, cluster, model)
    compiled = []
    for ldfg in gdfg.locals:
        cl = compile_local(ldfg)
        assert cl is not None, "random DFGs are positionally bucketed"
        compiled.append((ldfg.rank, cl))
    return compile_global(compiled, durs)


def _small_replayer():
    cluster = make_cluster_a(1, 1)

    def builder():
        return mini_model_graph(
            "mini_bert", batch_size=4, width_scale=8, spatial_scale=4
        )

    return PlanSession().prepare(
        PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
    ).replayer


def _reference_replayer(replayer, **overrides):
    """A replayer over the same DAGs and profiles in ``incremental=False``
    mode — the object-path reference the kernel tier must match."""
    kwargs = dict(
        optimizer_slots=replayer.memory_model.optimizer_slots,
        incremental=False,
        collective_model=replayer.collective_model,
        schedule_policy=replayer.schedule_policy,
        perturbation=replayer.perturbation,
    )
    kwargs.update(overrides)
    return Replayer(
        replayer.cluster,
        replayer.dags,
        {r: m.catalog for r, m in replayer.mappers.items()},
        {r: m.cast_calc for r, m in replayer.mappers.items()},
        **kwargs,
    )


def _candidates(replayer, limit=8):
    """(rank, op, target) single-op changes for the lowest-rank dag: the
    next-higher supported precision when one exists (the allocator's
    recovery direction), else the widest supported demotion."""
    rank = min(replayer.dags)
    dag = replayer.dags[rank]
    out = []
    for op in dag.adjustable_ops():
        cur = dag.precision(op)
        supported = dag.spec(op).supported_precisions()
        nxt = higher_precision(cur)
        if nxt in supported:
            out.append((rank, op, nxt))
        else:
            demotions = [p for p in supported if p.bits < cur.bits]
            if demotions:
                out.append((rank, op, max(demotions, key=lambda p: p.bits)))
        if len(out) == limit:
            break
    assert out, "mini_bert must expose adjustable ops with alternatives"
    return out


def _type_ranks(replayer, rank):
    tname = {w.rank: w.device.name for w in replayer.cluster.workers}[rank]
    return [
        w.rank for w in replayer.cluster.workers if w.device.name == tname
    ]


# ---------------------------------------------------------------------------
# single-evaluation parity
# ---------------------------------------------------------------------------


class TestKernelAnalyticParity:
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_bit_parity_on_random_dfgs(self, seed, n_ranks, n_buckets):
        """evaluate(compile_global(...)) == analytic Eq. (6), exactly."""
        rng = new_rng(seed)
        gdfg = _random_gdfg(rng, n_ranks, n_buckets)
        cluster = _cluster(n_ranks)
        cg = _compile_gdfg(gdfg, cluster)
        assert cg is not None
        iteration, comm_end = evaluate(cg)
        analytic = execute_global_dfg(gdfg, cluster)
        assert iteration == analytic.iteration_time
        # Reconstruct the per-rank fields the way the dispatch tier does.
        for ldfg in gdfg.locals:
            opt = ldfg.optimizer.duration if ldfg.optimizer else 0.0
            compute = ldfg.forward_time + ldfg.backward_time
            assert analytic.per_device_compute[ldfg.rank] == compute + opt
            assert analytic.comm_wait_time[ldfg.rank] == max(
                0.0, comm_end - compute
            )

    def test_replayer_kernel_toggle_is_invisible(self):
        """Replayer.simulate() on the fast path (Eq. (6) once per rank
        group) is bit-identical to the analytic recurrence over every
        rank's DFG and to the ``incremental=False`` object path — timeline,
        memory, every per-rank dict entry in worker order."""
        replayer = _small_replayer()
        grouped = replayer.simulate()
        analytic = execute_global_dfg(
            _per_rank_gdfg(replayer),
            replayer.cluster,
            memory=grouped.memory,
            collective_model=replayer.collective_model,
        )
        assert grouped == analytic
        assert grouped.timeline == analytic.timeline
        assert list(grouped.per_device_compute) == list(
            analytic.per_device_compute
        )
        reference = _reference_replayer(replayer)
        object_path = reference.simulate()
        assert object_path == grouped
        assert object_path.timeline == grouped.timeline
        assert reference.stats.kernel_sims == 0

    def test_fast_path_simulate_lowers_nothing(self, monkeypatch):
        """A fast-path simulate() on a session replayer plays the grouped
        recurrence and never lowers a DFG to the kernel's arrays, before
        or after a precision change."""
        import repro.core.replayer as replayer_module

        def refuse(*args, **kwargs):
            raise AssertionError("simulate() lowered a DFG")

        monkeypatch.setattr(replayer_module, "compile_local", refuse)
        monkeypatch.setattr(replayer_module, "compile_global", refuse)
        replayer = _small_replayer()
        base = replayer.simulate()
        (rank, op, target) = _candidates(replayer, limit=1)[0]
        original = replayer.dags[rank].precision(op)
        replayer.dags[rank].set_precision(op, target)
        assert replayer.simulate() != base
        replayer.dags[rank].set_precision(op, original)
        assert replayer.simulate() == base

    def test_kernel_cache_keyed_on_precision_signature(self):
        """A precision change invalidates the compiled plan; reverting it
        restores bit-identical results (not just close ones)."""
        replayer = _small_replayer()
        base = replayer.simulate()
        (rank, op, target) = _candidates(replayer, limit=1)[0]
        original = replayer.dags[rank].precision(op)
        for r in _type_ranks(replayer, rank):
            replayer.dags[r].set_precision(op, target)
        changed = replayer.simulate()
        # A stale compiled plan would replay the base result verbatim.
        assert changed != base
        for r in _type_ranks(replayer, rank):
            replayer.dags[r].set_precision(op, original)
        assert replayer.simulate() == base

    def test_compiled_buffers_are_frozen(self):
        rng = new_rng(7)
        gdfg = _random_gdfg(rng, 2, 2)
        cg = _compile_gdfg(gdfg, _cluster(2))
        with pytest.raises(ValueError):
            cg.durations[0] = 0.0
        cl = cg.locals[0]
        with pytest.raises(ValueError):
            cl.ready[0] = 0.0
        with pytest.raises(ValueError):
            cl.bwd_durs[:] = 0.0


# ---------------------------------------------------------------------------
# batched what-if parity
# ---------------------------------------------------------------------------


class TestBatchedWhatIf:
    def test_batch_rows_match_sequential_trials(self):
        """Row i of the batched sweep == apply candidate i to every
        same-type rank, simulate, read memory, revert — bit for bit; and
        the reverted base re-simulates to the original result."""
        replayer = _small_replayer()
        base = replayer.simulate()
        candidates = _candidates(replayer)
        batched = replayer.whatif_candidates(candidates)
        assert batched is not None and len(batched) == len(candidates)

        for (rank, op, target), (throughput, mem_total) in zip(
            candidates, batched
        ):
            original = replayer.dags[rank].precision(op)
            ranks = _type_ranks(replayer, rank)
            for r in ranks:
                replayer.dags[r].set_precision(op, target)
            sim = replayer.simulate()
            mem = replayer.memory_estimate(rank).total
            for r in ranks:
                replayer.dags[r].set_precision(op, original)
            assert throughput == sim.throughput, (op, target)
            assert mem_total == mem, (op, target)
        assert replayer.simulate() == base

    def test_identity_candidate_reproduces_base(self):
        """A what-if that re-assigns an op its current precision must come
        out exactly at the base throughput — the splice is a no-op."""
        replayer = _small_replayer()
        base = replayer.simulate()
        rank = min(replayer.dags)
        dag = replayer.dags[rank]
        op = dag.adjustable_ops()[0]
        out = replayer.whatif_candidates([(rank, op, dag.precision(op))])
        assert out is not None
        assert out[0][0] == base.throughput
        assert out[0][1] == replayer.memory_estimate(rank).total

    def test_empty_batch_and_kernel_off(self):
        replayer = _small_replayer()
        assert replayer.whatif_candidates([]) == []
        for off in (
            _reference_replayer(replayer),
            _reference_replayer(replayer, incremental=True,
                                schedule_policy="blocking_sync"),
        ):
            assert off.whatif_candidates(_candidates(off, 2)) is None

    def test_divergent_same_type_ranks_are_separate_groups(self):
        """Distinct per-rank DAGs, two same-type ranks on different plans:
        each rank is its own group, so the grouped recurrence serves
        simulate() bit-identical to the recurrence over every rank and to
        the object path, and the kernel serves per-rank what-ifs without
        falling back, bit-identical to apply → simulate → revert on that
        rank alone."""
        cluster = make_cluster_a(2, 2)
        ctx = PlanSession().prepare(
            PlanRequest(
                model=lambda: mini_model_graph(
                    "mini_bert", batch_size=4, width_scale=8, spatial_scale=4
                ),
                cluster=cluster,
                profile_repeats=1,
            )
        )
        shared = ctx.replayer
        dags = {w.rank: ctx.template.copy() for w in cluster.workers}
        replayer = Replayer(
            cluster, dags,
            {r: m.catalog for r, m in shared.mappers.items()},
            {r: m.cast_calc for r, m in shared.mappers.items()},
        )
        r2, r3 = (w.rank for w in cluster.workers if w.device.name == T4.name)
        for rank, target in ((r2, Precision.FP16), (r3, Precision.INT8)):
            dag = dags[rank]
            dag.apply_plan({
                op: target
                for op in dag.adjustable_ops()
                if target in dag.spec(op).supported_precisions()
            })
        assert len(replayer.groups) == len(cluster.workers)
        sim = replayer.simulate()
        assert replayer.local_dfg(r2).forward is not replayer.local_dfg(r3).forward
        assert sim == execute_global_dfg(
            _per_rank_gdfg(replayer), cluster, memory=sim.memory,
            collective_model=replayer.collective_model,
        )
        assert sim == _reference_replayer(replayer).simulate()

        candidates = []
        for rank in (r2, r3):
            dag = dags[rank]
            for op in dag.adjustable_ops()[:4]:
                others = [
                    p for p in dag.spec(op).supported_precisions()
                    if p is not dag.precision(op) and T4.supports(p)
                ]
                if others:
                    candidates.append((rank, op, others[0]))
        assert {rank for rank, _, _ in candidates} == {r2, r3}
        batched = replayer.whatif_candidates(candidates)
        assert batched is not None
        for (rank, op, target), (throughput, mem_total) in zip(
            candidates, batched
        ):
            original = dags[rank].precision(op)
            dags[rank].set_precision(op, target)
            trial = replayer.simulate()
            mem = replayer.memory_estimate(rank).total
            dags[rank].set_precision(op, original)
            assert throughput == trial.throughput, (rank, op, target)
            assert mem_total == mem, (rank, op, target)
        assert replayer.simulate() == sim


# ---------------------------------------------------------------------------
# allocator integration: incremental recovery ≡ reference recovery
# ---------------------------------------------------------------------------


def test_allocator_incremental_recovery_matches_reference():
    """The incremental replayer and the ``incremental=False`` reference run
    the same trial loops — same plan, same counts."""
    incremental = _build_allocator(incremental=True, **SMALL_SETUP)
    plan_i, report_i = incremental.allocate()

    reference = _build_allocator(incremental=False, **SMALL_SETUP)
    plan_r, report_r = reference.allocate()

    assert plan_i.to_dict() == plan_r.to_dict()
    assert report_i.final_throughput == report_r.final_throughput
    assert report_i.recovery_attempts == report_r.recovery_attempts
    assert report_i.recovery_accepted == report_r.recovery_accepted


def test_allocator_steps_types_split_across_groups_sequentially():
    """Same-type ranks priced by distinct catalog objects are separate rank
    groups.  The allocator steps the whole type at once, across every one
    of its groups, and lands on the reference plan."""
    cluster = make_cluster_a(1, 2)
    ctx = PlanSession().prepare(
        PlanRequest(
            model=lambda: mini_model_graph(
                "mini_bert", batch_size=4, width_scale=8, spatial_scale=4
            ),
            cluster=cluster,
            profile_repeats=1,
        )
    )

    def allocate(incremental):
        dags = {w.rank: ctx.template.copy() for w in cluster.workers}
        replayer = Replayer(
            cluster, dags,
            {r: copy.copy(m.catalog) for r, m in ctx.replayer.mappers.items()},
            {r: m.cast_calc for r, m in ctx.replayer.mappers.items()},
            incremental=incremental,
        )
        assert len(replayer.groups) == len(cluster.workers)
        indicator = VarianceIndicator(dags[1], ctx.stats, ctx.gamma)
        return Allocator(replayer, {T4.name: indicator}).allocate()

    plan, report = allocate(True)
    plan_ref, report_ref = allocate(False)
    assert plan.to_dict() == plan_ref.to_dict()
    assert report.final_throughput == report_ref.final_throughput


# ---------------------------------------------------------------------------
# the one dispatch rule: perturbed plans hold their throughput floor
# ---------------------------------------------------------------------------


class TestDispatchRule:
    def test_predicate(self):
        class Subclassed(DDPOverlapPolicy):
            pass

        ddp = DDPOverlapPolicy()
        assert eq6_fast_path(ddp)
        assert eq6_fast_path(ddp, Perturbation())  # no-op perturbation
        assert not eq6_fast_path(ddp, Perturbation(bandwidth_drift=0.3))
        assert not eq6_fast_path(BlockingSyncPolicy())
        assert not eq6_fast_path(Subclassed())

    @pytest.mark.parametrize("off", [
        {"perturbation": Perturbation(stragglers={1: 1.3})},
        {"perturbation": Perturbation(bandwidth_drift=0.3)},
        {"schedule_policy": "blocking_sync"},
    ])
    def test_compiled_global_follows_the_replayer_rule(self, off):
        """Batched what-ifs ask compiled_global(); it must decline
        whenever the replayer's own policy or perturbation moves the
        anchors or durations the kernel bakes in."""
        replayer = _small_replayer()
        assert replayer.compiled_global() is not None
        kernel_off = _reference_replayer(replayer, incremental=True, **off)
        assert kernel_off.compiled_global() is None
        kernel_off.simulate()
        assert kernel_off.stats.kernel_sims == 0


_FLOOR_MODEL = dict(batch_size=8, width_scale=16, spatial_scale=8)


@pytest.fixture(scope="module")
def floor_session():
    return PlanSession()


@pytest.mark.parametrize("cluster", ["cluster_a_4+4", "cloud_edge_4+2x2"])
@pytest.mark.parametrize("perturbation", [
    Perturbation(stragglers={4: 1.3}),  # rank 4 is an inference T4
    Perturbation(bandwidth_drift=0.3),
], ids=["straggler", "drift"])
def test_perturbed_plan_holds_throughput_floor(
    floor_session, cluster, perturbation
):
    """A perturbed qsync plan equals the sequential reference plan and
    keeps problem (1)'s constraint E >= (1 - slack) * T_min.  Batched
    recovery used to score candidates on the unperturbed kernel while
    T_min came from the perturbed recurrence, ending below the floor."""
    request = PlanRequest(
        model="mini_bert", model_kwargs=_FLOOR_MODEL, cluster=cluster,
        strategy="qsync", profile_repeats=2, perturbation=perturbation,
    )
    outcome = floor_session.plan(request)
    ctx = floor_session.prepare(request)
    reference = get_planner("qsync").plan(
        dataclasses.replace(ctx, replayer=_reference_replayer(ctx.replayer))
    )
    assert outcome.plan.to_dict() == reference.plan.to_dict()
    allocation = outcome.report.allocation
    assert allocation.final_throughput == reference.report.allocation.final_throughput
    slack = AllocatorConfig().throughput_slack
    assert allocation.final_throughput >= (1.0 - slack) * allocation.t_min


# ---------------------------------------------------------------------------
# hash-seed stability (the test_engine probe harness)
# ---------------------------------------------------------------------------


_KERNEL_PROBE = r"""
import json
from repro.common.dtypes import Precision, higher_precision
from repro.common.rng import new_rng
from tests.test_engine import _cluster, _random_gdfg
from tests.test_kernel import _candidates, _compile_gdfg, _small_replayer
from repro.kernel import evaluate

gdfg = _random_gdfg(new_rng(321), 3, 2)
cg = _compile_gdfg(gdfg, _cluster(3))
iteration, comm_end = evaluate(cg)

replayer = _small_replayer()
sim = replayer.simulate()
batched = replayer.whatif_candidates(_candidates(replayer, 6))
print(json.dumps({
    "random_iteration": iteration.hex(),
    "random_comm_end": comm_end.hex(),
    "ready": [x.hex() for x in cg.locals[0].ready.tolist()],
    "model_iteration": sim.iteration_time.hex(),
    "whatif": [[t.hex(), m] for t, m in batched],
}))
"""


def test_kernel_results_survive_hash_seed():
    """Compiled arrays and batched what-if rows must be bit-equal across
    PYTHONHASHSEED values — lowering never iterates salted containers."""
    root = Path(__file__).resolve().parent.parent

    def probe(hashseed):
        env = os.environ.copy()
        env["PYTHONHASHSEED"] = str(hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    assert probe(0) == probe(4242)
