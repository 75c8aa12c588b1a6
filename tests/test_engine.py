"""The Eq. (6) recurrence and its inputs: policies, perturbations, and the
one LocalDFG assembly walk every builder shares.

The contract under test: :func:`repro.engine.core.execute_global_dfg` is
the one Eq. (6) recurrence.  On arbitrary global DFGs its outputs satisfy
the recurrence's equations exactly, under either schedule policy and
collective model; the Replayer's play of one local per rank group equals
it over every rank and equals the ``incremental=False`` reference,
timeline included.
Schedules and perturbations are inputs, validated against orderings and
against the recurrence replayed on transformed inputs (hand-computed pins
live in ``tests/test_replayer_eq6.py``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.core as engine_core
from repro.backend import LPBackend
from repro.baselines import DproReplayer
from repro.common.rng import derive_seed, new_rng
from repro.core import CostMapper, GroundTruthSimulator
from repro.core.dfg import (
    CommBucket,
    DFGNode,
    GlobalDFG,
    LocalDFG,
    NodeKind,
    OpPrice,
    assemble_execution_line,
    bucket_readiness_from_stream,
    weight_buckets,
)
from repro.core.replayer import Replayer
from repro.engine import (
    SCHEDULE_POLICIES,
    BlockingSyncPolicy,
    DDPOverlapPolicy,
    Perturbation,
    resolve_schedule_policy,
)
from repro.engine.core import execute_global_dfg
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OperatorSpec, OpKind
from repro.hardware import T4, V100, Cluster, Worker
from repro.parallel.comm_model import resolve_collective_model
from repro.models import mini_model_graph
from repro.profiling import CastCostCalculator, profile_operator_costs
from repro.session import PlanRequest, PlanSession
from repro.session.planners import available_strategies

GBPS = 1024**3


# ---------------------------------------------------------------------------
# random global DFGs (richer than the hand pins: uneven streams, shared
# readiness anchors, forward-end-ready buckets, zero-cost optimizers)
# ---------------------------------------------------------------------------


def _random_gdfg(rng, n_ranks, n_buckets):
    locals_ = []
    for rank in range(n_ranks):
        dfg = LocalDFG(f"dev{rank % 2}", rank)
        for i in range(int(rng.integers(1, 6))):
            dfg.add_forward(
                DFGNode(f"f{i}", NodeKind.FORWARD, float(rng.uniform(1e-4, 1e-2)))
            )
        n_bwd = int(rng.integers(max(1, n_buckets), 8))
        for i in range(n_bwd):
            dfg.add_backward(
                DFGNode(f"b{i}", NodeKind.BACKWARD,
                        float(rng.uniform(1e-4, 1e-2)), op=f"op{i}")
            )
        buckets = [
            CommBucket(j, int(rng.integers(10**5, 10**7)), (f"op{j}",))
            for j in range(n_buckets)
        ]
        # Anchors anywhere in the stream, including -1 (= forward end).
        ready = {
            j: int(rng.integers(-1, n_bwd)) for j in range(n_buckets)
        }
        dfg.set_buckets(buckets, ready)
        if rng.uniform() < 0.8:
            dfg.set_optimizer(float(rng.uniform(1e-4, 1e-3)))
        locals_.append(dfg)
    return GlobalDFG(locals_)


def _per_rank_gdfg(replayer):
    """The replayer's locals played over every rank: one entry per worker,
    each slotted onto its own (same-group entries alias one DFG)."""
    workers = replayer.cluster.workers
    return GlobalDFG(
        [replayer.local_dfg(w.rank) for w in workers],
        [(w.rank, i) for i, w in enumerate(workers)],
    )


def _cluster(n_ranks):
    return Cluster(
        name="x",
        workers=tuple(
            Worker(rank=r, device=T4 if r % 2 else V100, link_bandwidth=8 * GBPS)
            for r in range(n_ranks)
        ),
    )


def _assert_eq6(sim, gdfg, cluster, policy=None, collective_model=None):
    """``sim`` satisfies Eq. (6) on ``gdfg``'s inputs, float for float:
    bucket ``n`` starts at the max of every rank's readiness and bucket
    ``n-1``'s end and lasts its slowest rank's priced collective; a rank
    ends at max(backward end, last collective end) plus its optimizer."""
    policy = resolve_schedule_policy(policy)
    model = resolve_collective_model(collective_model)
    locals_ = gdfg.locals
    assert len(sim.comm_windows) == gdfg.n_buckets
    comm_end = 0.0
    for n, (start, end) in enumerate(sim.comm_windows):
        ready = [policy.bucket_ready_times(l)[n] for l in locals_]
        dur = max(model.allreduce_time(cluster, l.buckets[n].nbytes)
                  for l in locals_)
        assert start == max(max(ready), comm_end)
        assert end == start + dur
        comm_end = end
    ends = []
    for l in locals_:
        compute_end = policy.compute_end(l)
        opt = l.optimizer.duration if l.optimizer else 0.0
        assert sim.comm_wait_time[l.rank] == max(0.0, comm_end - compute_end)
        assert sim.per_device_compute[l.rank] == l.compute_time
        ends.append(max(compute_end, comm_end) + opt)
    assert sim.iteration_time == max(ends)


class TestEngineAnalyticParity:
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 3),
           st.sampled_from(sorted(SCHEDULE_POLICIES)))
    @settings(max_examples=60, deadline=None)
    def test_bit_parity_on_random_dfgs(self, seed, n_ranks, n_buckets, policy):
        """execute_global_dfg satisfies the Eq. (6) equations exactly on
        random DFGs under either policy — no tolerance."""
        rng = new_rng(seed)
        gdfg = _random_gdfg(rng, n_ranks, n_buckets)
        cluster = _cluster(n_ranks)
        sim = execute_global_dfg(gdfg, cluster, schedule_policy=policy)
        _assert_eq6(sim, gdfg, cluster, policy)

    @given(st.integers(0, 10_000), st.sampled_from(sorted(SCHEDULE_POLICIES)))
    @settings(max_examples=20, deadline=None)
    def test_bit_parity_under_hierarchical_collectives(self, seed, policy):
        rng = new_rng(seed)
        gdfg = _random_gdfg(rng, 4, 2)
        cluster = _cluster(4)
        sim = execute_global_dfg(
            gdfg, cluster, collective_model="hierarchical",
            schedule_policy=policy,
        )
        _assert_eq6(sim, gdfg, cluster, policy, "hierarchical")

    def test_replayer_timeline_route_matches_analytic(self):
        """Replayer.simulate(), one local per rank group, equals the
        recurrence over every rank, timelines included."""
        ctx = PlanSession().prepare(
            PlanRequest(model="mini_bert", model_kwargs={"batch_size": 4},
                        cluster="cluster_a_4+4", profile_repeats=1)
        )
        replayer = ctx.replayer
        gdfg = _per_rank_gdfg(replayer)
        memory = {w.rank: replayer.memory_estimate(w.rank)
                  for w in replayer.cluster.workers}
        per_rank = execute_global_dfg(
            gdfg, replayer.cluster, memory=memory,
            collective_model=replayer.collective_model,
        )
        grouped = replayer.simulate()
        assert len(grouped.played[0]) == len(replayer.groups) < len(gdfg.locals)
        assert grouped == per_rank
        assert grouped.timeline == per_rank.timeline

    def test_dispatcher_uses_analytic_fast_path_semantics(self):
        """Defaults are the DDP-overlap policy, by name or instance, and a
        no-op perturbation is dropped: all four calls agree, timelines
        included."""
        rng = new_rng(7)
        gdfg = _random_gdfg(rng, 3, 2)
        cluster = _cluster(3)
        default = execute_global_dfg(gdfg, cluster)
        for variant in (
            execute_global_dfg(gdfg, cluster, schedule_policy="ddp_overlap"),
            execute_global_dfg(gdfg, cluster,
                               schedule_policy=DDPOverlapPolicy()),
            execute_global_dfg(gdfg, cluster, perturbation=Perturbation()),
        ):
            assert variant == default
            assert variant.timeline == default.timeline
        assert default.played[0] is gdfg.locals


# ---------------------------------------------------------------------------
# schedule policies
# ---------------------------------------------------------------------------


class TestSchedulePolicies:
    def test_registry_and_resolution(self):
        assert set(SCHEDULE_POLICIES) == {"ddp_overlap", "blocking_sync"}
        assert isinstance(resolve_schedule_policy(None), DDPOverlapPolicy)
        assert isinstance(
            resolve_schedule_policy("blocking_sync"), BlockingSyncPolicy
        )
        policy = BlockingSyncPolicy()
        assert resolve_schedule_policy(policy) is policy
        with pytest.raises(KeyError, match="unknown schedule policy"):
            resolve_schedule_policy("eager")
        with pytest.raises(TypeError):
            resolve_schedule_policy(3.14)

    @given(st.integers(0, 10_000))
    # Regression: at this seed a totals-based blocking anchor landed 1 ulp
    # below an overlap prefix-sum readiness, letting blocking "win".
    @example(1042)
    @settings(max_examples=30, deadline=None)
    def test_blocking_never_beats_overlap(self, seed):
        rng = new_rng(seed)
        gdfg = _random_gdfg(rng, 3, 2)
        cluster = _cluster(3)
        overlap = execute_global_dfg(gdfg, cluster)
        blocking = execute_global_dfg(
            gdfg, cluster, schedule_policy="blocking_sync"
        )
        assert blocking.iteration_time >= overlap.iteration_time

    def test_blocking_comm_starts_after_every_backward(self):
        rng = new_rng(11)
        gdfg = _random_gdfg(rng, 3, 2)
        cluster = _cluster(3)
        sim = execute_global_dfg(
            gdfg, cluster, schedule_policy="blocking_sync"
        )
        compute_end = max(
            l.forward_time + l.backward_time for l in gdfg.locals
        )
        comm_starts = [e.start for e in sim.timeline if e.stream == "comm"]
        assert comm_starts and all(s >= compute_end for s in comm_starts)

    def test_blocking_sync_plays_once_per_rank_group(self):
        """Replayer.simulate(schedule_policy="blocking_sync") on a 32-rank
        preset (four buckets, so the policy moves the result) plays one
        local per rank group, yet equals the recurrence
        over every rank and the ``incremental=False`` reference, timeline
        included."""
        ctx = PlanSession().prepare(
            PlanRequest(
                model="resnet50", model_kwargs={"batch_size": 2},
                cluster="cluster_a_2x8+2x8", profile_repeats=1,
            )
        )
        replayer = ctx.replayer
        grouped = replayer.simulate(schedule_policy="blocking_sync")
        assert len(grouped.played[0]) == len(replayer.groups)
        assert len(replayer.groups) < len(replayer.cluster.workers) == 32

        per_rank = execute_global_dfg(
            _per_rank_gdfg(replayer), replayer.cluster,
            memory=grouped.memory, collective_model=replayer.collective_model,
            schedule_policy="blocking_sync",
        )
        reference = Replayer(
            replayer.cluster, replayer.dags,
            {r: m.catalog for r, m in replayer.mappers.items()},
            {r: m.cast_calc for r, m in replayer.mappers.items()},
            optimizer_slots=replayer.memory_model.optimizer_slots,
            incremental=False, collective_model=replayer.collective_model,
        ).simulate(schedule_policy="blocking_sync")
        for other in (per_rank, reference):
            assert grouped.iteration_time.hex() == other.iteration_time.hex()
            assert grouped == other
            assert grouped.timeline == other.timeline
        assert grouped.iteration_time > replayer.simulate().iteration_time


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------


class TestPerturbation:
    def test_validation(self):
        with pytest.raises(ValueError, match="compute_jitter"):
            Perturbation(compute_jitter=-0.1)
        with pytest.raises(ValueError, match="bandwidth_drift"):
            Perturbation(bandwidth_drift=-0.1)
        with pytest.raises(ValueError, match="straggler factor"):
            Perturbation(stragglers={0: 0.0})
        with pytest.raises(ValueError, match="more than once"):
            Perturbation(stragglers=((3, 2.0), (3, 4.0)))

    @pytest.mark.parametrize("rank", [1.5, 2.0, True, "1"])
    def test_straggler_rank_must_be_an_integer(self, rank):
        """A non-integer rank never matches a worker, so it would slow
        nothing while still expanding simulate()'s slots into per-rank copies."""
        with pytest.raises(ValueError, match="straggler rank"):
            Perturbation(stragglers={rank: 2.0})
        assert Perturbation(stragglers={np.int64(1): 2.0}).straggler_factor(1) == 2.0

    def test_stragglers_normalize_and_compare_equal(self):
        a = Perturbation(stragglers={2: 1.5, 0: 2.0})
        b = Perturbation(stragglers=((0, 2.0), (2, 1.5)))
        assert a == b
        assert a.straggler_factor(2) == 1.5
        assert a.straggler_factor(1) == 1.0

    def test_factors_are_seed_derived_and_stable(self):
        pert = Perturbation(seed=9, compute_jitter=0.5, bandwidth_drift=0.25)
        expected = 1.0 + 0.5 * float(
            new_rng(derive_seed(9, "compute", 3)).uniform()
        )
        assert pert.compute_scale(3) == expected
        assert pert.comm_scale(0) != pert.comm_scale(1)
        assert Perturbation(seed=9, compute_jitter=0.5).compute_scale(3) == \
            Perturbation(seed=9, compute_jitter=0.5).compute_scale(3)
        assert Perturbation(seed=10, compute_jitter=0.5).compute_scale(3) != expected

    def test_perturb_local_scales_and_preserves_structure(self):
        rng = new_rng(3)
        gdfg = _random_gdfg(rng, 1, 2)
        ldfg = gdfg.locals[0]
        pert = Perturbation(stragglers={0: 2.0})
        scaled = pert.perturb_local(ldfg, 0)
        assert scaled is not ldfg
        assert scaled.forward_time == pytest.approx(2.0 * ldfg.forward_time)
        assert scaled.backward_time == pytest.approx(2.0 * ldfg.backward_time)
        assert scaled.buckets == ldfg.buckets
        assert scaled.bucket_ready_after == ldfg.bucket_ready_after
        assert scaled.optimizer.duration == pytest.approx(
            2.0 * ldfg.optimizer.duration
        )
        # A no-op perturbation hands back the very same object.
        assert Perturbation().perturb_local(ldfg, 0) is ldfg
        # The rank argument, not the local's own, picks the scale.
        assert pert.perturb_local(ldfg, 1) is ldfg
        moved = Perturbation(stragglers={1: 2.0}).perturb_local(ldfg, 1)
        assert moved.rank == 1 and moved.forward_time == scaled.forward_time
        assert Perturbation().is_noop

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_straggler_engine_matches_oracle_on_perturbed_inputs(self, seed):
        """With no bandwidth drift, a perturbed call must equal the
        recurrence replayed on the perturbed DFGs, bit for bit."""
        rng = new_rng(seed)
        gdfg = _random_gdfg(rng, 3, 2)
        cluster = _cluster(3)
        pert = Perturbation(seed=5, compute_jitter=0.3, stragglers={1: 3.0})
        perturbed = execute_global_dfg(gdfg, cluster, perturbation=pert)
        oracle = execute_global_dfg(
            GlobalDFG([pert.perturb_local(l, l.rank) for l in gdfg.locals]),
            cluster,
        )
        assert perturbed == oracle
        assert perturbed.timeline == oracle.timeline

    def test_iteration_tracks_the_slowest_rank(self):
        """Straggler ordering: iteration time grows monotonically with the
        straggler factor and never drops below the perturbed slowest rank's
        compute time."""
        rng = new_rng(21)
        gdfg = _random_gdfg(rng, 4, 2)
        cluster = _cluster(4)
        previous = 0.0
        for factor in (1.0, 2.0, 4.0, 16.0):
            pert = Perturbation(seed=1, stragglers={2: factor})
            sim = execute_global_dfg(gdfg, cluster, perturbation=pert)
            bound = max(
                pert.perturb_local(l, l.rank).compute_time for l in gdfg.locals
            )
            assert sim.iteration_time >= bound
            assert sim.iteration_time >= previous
            previous = sim.iteration_time

    def test_bandwidth_drift_slows_only_comm(self):
        rng = new_rng(2)
        gdfg = _random_gdfg(rng, 3, 2)
        cluster = _cluster(3)
        clean = execute_global_dfg(gdfg, cluster)
        drifted = execute_global_dfg(
            gdfg, cluster, perturbation=Perturbation(bandwidth_drift=1.0)
        )
        assert drifted.iteration_time >= clean.iteration_time
        assert drifted.per_device_compute == clean.per_device_compute


_PERTURBATION_PROBE = r"""
import json
from repro.common.rng import new_rng
from repro.engine import Perturbation
from repro.engine.core import execute_global_dfg
from tests.test_engine import _cluster, _random_gdfg

pert = Perturbation(seed=13, compute_jitter=0.2, bandwidth_drift=0.4,
                    stragglers={1: 2.5})
gdfg = _random_gdfg(new_rng(99), 3, 2)
sim = execute_global_dfg(gdfg, _cluster(3), perturbation=pert)
print(json.dumps({
    "scales": [pert.compute_scale(r).hex() for r in range(3)],
    "drift": [pert.comm_scale(n).hex() for n in range(2)],
    "iteration": sim.iteration_time.hex(),
}))
"""


def test_perturbation_survives_hash_seed():
    """Straggler factors and drifted timelines must be bit-equal across
    PYTHONHASHSEED values (derive_seed discipline, never builtin hash)."""
    root = Path(__file__).resolve().parent.parent

    def probe(hashseed):
        env = os.environ.copy()
        env["PYTHONHASHSEED"] = str(hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _PERTURBATION_PROBE],
            capture_output=True, text=True, env=env, check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    assert probe(0) == probe(4242)


# ---------------------------------------------------------------------------
# unified cost sources / shared assembly
# ---------------------------------------------------------------------------


def _chain_dag() -> PrecisionDAG:
    dag = PrecisionDAG()
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (32, 256)))
    dag.add_op(
        OperatorSpec("fc1", OpKind.LINEAR, (32, 512), weight_shape=(512, 256),
                     flops=2.0 * 32 * 256 * 512),
        inputs=["input"],
    )
    dag.add_op(
        OperatorSpec("relu", OpKind.RELU, (32, 512), flops=32.0 * 512),
        inputs=["fc1"],
    )
    dag.add_op(
        OperatorSpec("fc2", OpKind.LINEAR, (32, 128), weight_shape=(128, 512),
                     flops=2.0 * 32 * 512 * 128),
        inputs=["relu"],
    )
    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["fc2"])
    return dag


class TestUnifiedCostSources:
    def test_zero_backward_weighted_op_anchors_to_preceding_node(self):
        """The PR 1 anchoring rule holds for *every* builder, since they all
        run one walk: a weighted op contributing no backward nodes anchors
        its bucket to the nearest preceding backward-stream node, not the
        end of the stream."""
        dag = _chain_dag()
        topo = dag.topo_order()

        def record(name):
            fwd = [DFGNode(name, NodeKind.FORWARD, 1e-3, op=name)]
            if dag.spec(name).kind is OpKind.INPUT or name == "fc1":
                return OpPrice.of(fwd, [])  # fc1's backward rounds to zero
            return OpPrice.of(
                fwd, [DFGNode(f"bwd:{name}", NodeKind.BACKWARD, 1e-3, op=name)]
            )

        dfg = assemble_execution_line(
            "T4", 0, topo, {name: record(name) for name in topo},
            frozenset(dag.weighted_ops()), weight_buckets(dag), 1e-4,
        )
        # Backward stream (reverse topo): loss, fc2, relu — fc1 contributes
        # nothing.  fc2's bucket anchors at its own node; fc1's bucket must
        # anchor to relu's node (index 2), NOT to the stream end.
        names = [n.name for n in dfg.backward]
        assert names == ["bwd:loss", "bwd:fc2", "bwd:relu"]
        by_ops = {b.ops: b.index for b in dfg.buckets}
        ready = dfg.bucket_ready_after
        fc1_bucket = next(i for ops, i in by_ops.items() if "fc1" in ops)
        assert ready[fc1_bucket] == 2  # nearest preceding node (bwd:relu)

    def test_dpro_equals_replayer_on_fp32(self):
        """With no op below FP32 there is nothing to cast and nothing to
        cascade, so Dpro's pricing meets the Cost Mapper's — and through the
        shared walk, so do the nodes, totals, buckets and readiness, bit for
        bit."""
        dag = mini_model_graph("mini_bert", batch_size=2)
        cluster = Cluster(
            name="1xT4",
            workers=(Worker(rank=0, device=T4, link_bandwidth=8 * GBPS),),
        )
        backend = LPBackend(T4, seed=0)
        catalog = profile_operator_costs(dag, backend, repeats=1)
        casts = CastCostCalculator(backend)
        mapper_dfg = CostMapper(dag, catalog, casts, device=T4).build_local_dfg(
            "T4", 0
        )
        dpro_dfg = DproReplayer(cluster, {0: dag}, {0: catalog})._build_local(0)
        assert dpro_dfg.forward == mapper_dfg.forward
        assert dpro_dfg.backward == mapper_dfg.backward
        assert dpro_dfg.forward_time == mapper_dfg.forward_time
        assert dpro_dfg.backward_time == mapper_dfg.backward_time
        assert dpro_dfg.optimizer == mapper_dfg.optimizer
        assert dpro_dfg.buckets == mapper_dfg.buckets
        assert dpro_dfg.bucket_ready_after == mapper_dfg.bucket_ready_after
        assert dpro_dfg.bucket_ready_times() == mapper_dfg.bucket_ready_times()

    def test_readiness_helper_defaults_missing_ops_to_stream_end(self):
        backward = [DFGNode(f"b{i}", NodeKind.BACKWARD, 1e-3) for i in range(3)]
        buckets = [CommBucket(0, 100, ("known",)), CommBucket(1, 100, ("lost",))]
        ready = bucket_readiness_from_stream(backward, buckets, {"known": 0})
        assert ready == {0: 0, 1: 2}


# ---------------------------------------------------------------------------
# rank identity (non-contiguous ranks) across GT / Dpro / Replayer
# ---------------------------------------------------------------------------


class TestNonContiguousRanks:
    def _setup(self):
        # Ranks 0, 2, 5: a sub-cluster view after decommissioning ranks.
        workers = (
            Worker(rank=0, device=V100, link_bandwidth=32 * GBPS),
            Worker(rank=2, device=V100, link_bandwidth=32 * GBPS),
            Worker(rank=5, device=T4, link_bandwidth=8 * GBPS),
        )
        cluster = Cluster(name="gappy", workers=workers)
        builder = lambda: mini_model_graph("mini_bert", batch_size=2)
        dags = {w.rank: builder() for w in cluster.workers}
        backends = {w.rank: LPBackend(w.device, seed=0) for w in cluster.workers}
        catalogs = {
            w.rank: profile_operator_costs(dags[w.rank], backends[w.rank], repeats=1)
            for w in cluster.workers
        }
        casts = {w.rank: CastCostCalculator(backends[w.rank]) for w in cluster.workers}
        return cluster, dags, backends, catalogs, casts

    def test_ground_truth_uses_rank_identity_not_position(self):
        cluster, dags, backends, _, _ = self._setup()
        gt = GroundTruthSimulator(cluster, dags, backends, seed=1)
        # Rank 5 is a T4; positional indexing would crash (or worse,
        # silently price a V100).
        dfg = gt._build_local(5, 0)
        assert dfg.device_name == "T4" and dfg.rank == 5
        sim = gt.run(iterations=2)
        assert set(sim.per_device_compute) == {0, 2, 5}
        assert sim.iteration_time > 0

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_ground_truth_rejects_empty_runs(self, iterations):
        cluster, dags, backends, _, _ = self._setup()
        gt = GroundTruthSimulator(cluster, dags, backends, seed=1)
        with pytest.raises(ValueError, match="iterations"):
            gt.run(iterations=iterations)

    def test_dpro_uses_rank_identity_not_position(self):
        cluster, dags, _, catalogs, _ = self._setup()
        dpro = DproReplayer(cluster, dags, catalogs)
        dfg = dpro._build_local(5)
        assert dfg.device_name == "T4" and dfg.rank == 5
        sim = dpro.simulate()
        assert set(sim.comm_wait_time) == {0, 2, 5}

    def test_replayer_simulates_gappy_ranks(self):
        cluster, dags, _, catalogs, casts = self._setup()
        replayer = Replayer(cluster, dags, catalogs, casts)
        sim = replayer.simulate()
        assert set(sim.per_device_compute) == {0, 2, 5}
        assert {e.rank for e in sim.timeline} == {0, 2, 5}


# ---------------------------------------------------------------------------
# timelines render from the result
# ---------------------------------------------------------------------------


def _timeline_request(strategy):
    return PlanRequest(
        model="mini_bert",
        model_kwargs={"batch_size": 4, "width_scale": 8, "spatial_scale": 4},
        cluster="cluster_a_4+4", strategy=strategy, profile_repeats=1,
    )


class TestTimelineOnDemand:
    @pytest.mark.parametrize("strategy", ["qsync", "qsync+qsgd", "uniform"])
    def test_plan_never_enters_the_engine(self, strategy, monkeypatch):
        """A plan never plays Eq. (6) over every rank: every play, final
        simulation included, runs one local per rank group, and the
        timeline still renders."""
        played = []

        def spy(gdfg, *args, **kwargs):
            played.append(len(gdfg.locals))
            return execute_global_dfg(gdfg, *args, **kwargs)

        monkeypatch.setattr(engine_core, "execute_global_dfg", spy)
        session = PlanSession()
        outcome = session.plan(_timeline_request(strategy))
        groups = session.last_context.replayer.groups
        assert len(groups) < len(session.last_context.cluster.workers)
        assert played and set(played) == {len(groups)}
        assert len(outcome.simulation.played[0]) == len(groups)
        assert outcome.simulation.timeline

    def test_every_strategy_timeline_matches_the_engine(self):
        """Each registered strategy's outcome timeline is non-empty and
        equals the recurrence's over every rank of the global DFG that
        strategy played."""
        session = PlanSession()
        for strategy in available_strategies():
            sim = session.plan(_timeline_request(strategy)).simulation
            replayer = session.last_context.replayer
            bits = replayer._bucket_bits()
            if strategy == "dpro":
                dpro = DproReplayer(
                    replayer.cluster, replayer.dags,
                    {r: m.catalog for r, m in replayer.mappers.items()},
                )
                gdfg = GlobalDFG(
                    [dpro._build_local(w.rank) for w in replayer.cluster.workers]
                )
            else:
                gdfg = _per_rank_gdfg(replayer)
            per_rank = execute_global_dfg(
                gdfg, replayer.cluster, memory=sim.memory,
                collective_model=replayer.collective_model, bucket_bits=bits,
            )
            assert sim.timeline, strategy
            assert sim.timeline == per_rank.timeline, strategy
            assert sim == per_rank, strategy


# ---------------------------------------------------------------------------
# session threading + the straggler experiment
# ---------------------------------------------------------------------------


class TestSessionThreading:
    def test_request_validates_schedule_policy_and_perturbation(self):
        with pytest.raises(ValueError, match="blocking_sync"):
            PlanRequest(model="mini_bert", schedule_policy="nope")
        with pytest.raises(ValueError, match="schedule_policy"):
            PlanRequest(model="mini_bert", schedule_policy=1.0)
        with pytest.raises(ValueError, match="perturbation"):
            PlanRequest(model="mini_bert", perturbation="straggle please")
        # Valid specs construct without profiling anything.
        PlanRequest(model="mini_bert", schedule_policy="blocking_sync",
                    perturbation=Perturbation(stragglers={0: 2.0}))

    def test_session_threads_policy_and_perturbation_to_replayer(self):
        session = PlanSession()
        base = PlanRequest(
            model="mini_bert", model_kwargs={"batch_size": 2},
            cluster="cluster_a_4+4", strategy="uniform", profile_repeats=1,
        )
        clean = session.plan(base)
        pert = Perturbation(stragglers={7: 4.0})
        slowed = session.plan(
            PlanRequest(
                model="mini_bert", model_kwargs={"batch_size": 2},
                cluster="cluster_a_4+4", strategy="uniform", profile_repeats=1,
                schedule_policy="blocking_sync", perturbation=pert,
            )
        )
        # Same uniform plan, worse schedule + a straggler: strictly slower.
        assert slowed.plan == clean.plan
        assert slowed.simulation.iteration_time > clean.simulation.iteration_time
        # Rank 7 shares its group's local with ranks 4-6; only it slows.
        before = clean.simulation.per_device_compute
        after = slowed.simulation.per_device_compute
        assert after[7] == pytest.approx(4.0 * before[7])
        assert all(after[r] == before[r] for r in (4, 5, 6))

    def test_dpro_honours_schedule_policy_and_perturbation(self):
        """strategy="dpro" replays under the request's schedule and
        perturbation, exactly as a directly built DproReplayer does."""
        session = PlanSession()
        # resnet50 fills several gradient buckets, so blocking sync (no
        # backward/all-reduce overlap) is measurably slower than DDP.
        base = dict(
            model="resnet50", model_kwargs={"batch_size": 2},
            cluster="cluster_a_4+4", strategy="dpro", profile_repeats=1,
        )
        clean = session.plan(PlanRequest(**base)).simulation
        pert = Perturbation(stragglers={4: 2.0})
        for extra in (
            dict(schedule_policy="blocking_sync"),
            dict(perturbation=pert),
        ):
            sim = session.plan(PlanRequest(**base, **extra)).simulation
            replayer = session.last_context.replayer
            direct = DproReplayer(
                replayer.cluster, replayer.dags,
                {r: m.catalog for r, m in replayer.mappers.items()},
                schedule_policy=extra.get("schedule_policy"),
                perturbation=extra.get("perturbation"),
            ).simulate()
            assert sim == direct, extra
            assert sim.iteration_time > clean.iteration_time, extra

    def test_straggler_experiment_shapes(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("straggler", quick=True, seed=3)
        assert result.column("Tracks slowest") == ["yes"] * len(result.rows)
        overlap_ms = [
            float(row[2]) for row in result.rows if row[0] == "ddp_overlap"
        ]
        assert overlap_ms == sorted(overlap_ms)  # grows with the factor
        for row_o, row_b in zip(result.rows[::2], result.rows[1::2]):
            assert row_o[0] == "ddp_overlap" and row_b[0] == "blocking_sync"
            assert float(row_b[2]) >= float(row_o[2]) - 1e-9

    def test_straggler_experiment_is_seed_deterministic(self):
        from repro.experiments.registry import run_experiment

        a = run_experiment("straggler", quick=True, seed=3)
        b = run_experiment("straggler", quick=True, seed=3)
        c = run_experiment("straggler", quick=True, seed=4)
        assert a.rows == b.rows
        assert a.rows != c.rows
