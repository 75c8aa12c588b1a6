"""Equivalence tests for the incremental replay engine.

The engine's contract: dirty-tracked delta updates (DAG version counters,
`propagate_dirty` cones, Cost Mapper segment patching, the DFG and
memory terms each rank group's Cost Mapper retains) must be
*observationally identical* to rebuilding everything from scratch.  These
tests drive randomized sequences of single-op precision changes on both
cluster presets and compare node-for-node against fresh rebuilds, and run
the full Allocator in both modes asserting byte-identical plans.
"""

import dataclasses

import pytest

from repro.common import GBPS, Precision, new_rng
from repro.core import CostMapper
from repro.core.allocator import Allocator
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.graph.propagation import effective_precisions, propagate_dirty
from repro.core.replayer import Replayer
from repro.hardware import T4, V100, Cluster, Worker, make_cluster_a, make_cluster_b
from repro.models import mini_model_graph
from repro.profiling import MemoryModel, synthesize_stats
from repro.session import PlanRequest, PlanSession

CLUSTERS = {
    "cluster_a": lambda: make_cluster_a(1, 1),
    "cluster_a_2+2": lambda: make_cluster_a(2, 2),
    "cluster_b": lambda: make_cluster_b(1, 1, memory_ratio=0.5),
}


def _assert_dfg_equal(inc, full):
    """Node-for-node equality: durations, buckets, ready times, optimizer."""
    def flat(nodes):
        return [(n.name, n.kind, n.duration, n.op) for n in nodes]

    assert flat(inc.forward) == flat(full.forward)
    assert flat(inc.backward) == flat(full.backward)
    assert inc.buckets == full.buckets
    assert inc.bucket_ready_after == full.bucket_ready_after
    assert inc.bucket_ready_times() == full.bucket_ready_times()
    assert inc.forward_time == full.forward_time
    assert inc.backward_time == full.backward_time
    assert inc.optimizer.duration == full.optimizer.duration


def _random_walk_ops(dag, device, rng, steps):
    """Random (op, precision) single-op changes the device can execute."""
    adjustable = [
        op
        for op in dag.adjustable_ops()
        if len(dag.spec(op).supported_precisions()) > 1
    ]
    walk = []
    for _ in range(steps):
        op = adjustable[int(rng.integers(len(adjustable)))]
        cands = [
            p
            for p in dag.spec(op).supported_precisions()
            if device.supports(p)
        ]
        walk.append((op, cands[int(rng.integers(len(cands)))]))
    return walk


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("model", ["mini_bert", "mini_vggbn"])
def test_apply_change_walk_matches_fresh_rebuild(cluster_name, model):
    """Randomized single-op walks: incremental apply_change must equal a
    from-scratch build_local_dfg after every step, and the memoized memory
    estimate must equal a full MemoryModel walk."""
    cluster = CLUSTERS[cluster_name]()
    builder = lambda: mini_model_graph(model, batch_size=4, width_scale=8,
                                       spatial_scale=4)
    replayer = PlanSession().prepare(
        PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
    ).replayer
    worker = cluster.inference_workers[0]
    rank = worker.rank
    mapper = replayer.mappers[rank]
    dag = replayer.dags[rank]
    rng = new_rng(1234)
    memory_model = MemoryModel(optimizer_slots=1)

    # Prime the retained state so every subsequent change is a delta.
    mapper.build_local_dfg(worker.device.name, rank)
    for op, prec in _random_walk_ops(dag, worker.device, rng, steps=25):
        inc = mapper.apply_change(op, prec, worker.device.name, rank)
        fresh = CostMapper(
            dag.copy(), mapper.catalog, mapper.cast_calc,
            device=worker.device, bucket_cap_bytes=mapper.bucket_cap_bytes,
        ).build_local_dfg(worker.device.name, rank)
        _assert_dfg_equal(inc, fresh)
        assert replayer.memory_estimate(rank) == memory_model.estimate(dag)
    assert mapper.full_rebuilds == 1
    assert mapper.incremental_updates > 0


@pytest.mark.parametrize("model", ["mini_bert", "mini_resnet"])
def test_propagate_dirty_matches_full_resolution(model):
    """Delta effective-precision resolution == full pass, and the returned
    changed set is exactly the diff."""
    dag = mini_model_graph(model, batch_size=4)
    rng = new_rng(7)
    effective = effective_precisions(dag)
    adjustable = dag.adjustable_ops()
    for _ in range(40):
        op = adjustable[int(rng.integers(len(adjustable)))]
        cands = dag.spec(op).supported_precisions()
        before = dag.version
        dag.set_precision(op, cands[int(rng.integers(len(cands)))])
        dirty = dag.dirty_since(before)
        old = dict(effective)
        changed = propagate_dirty(dag, effective, dirty)
        full = effective_precisions(dag)
        assert effective == full
        assert changed == {n for n in full if full[n] is not old[n]}


def test_dirty_tracking_versioning():
    dag = mini_model_graph("mini_bert", batch_size=4)
    v0 = dag.version
    op = dag.adjustable_ops()[0]
    dag.set_precision(op, dag.precision(op))  # no-op write
    assert dag.version == v0
    assert dag.dirty_since(v0) == set()
    dag.set_precision(op, Precision.FP16)
    assert dag.version == v0 + 1
    assert dag.dirty_since(v0) == {op}
    dag.set_precision(op, Precision.FP32)
    assert dag.dirty_since(v0 + 1) == {op}
    assert dag.dirty_since(dag.version) == set()


def test_precision_signature_tracks_changes():
    dag = mini_model_graph("mini_bert", batch_size=4)
    sig0 = dag.precision_signature()
    op = dag.adjustable_ops()[0]
    dag.set_precision(op, Precision.FP16)
    sig1 = dag.precision_signature()
    assert sig0 != sig1
    dag.set_precision(op, Precision.FP32)
    assert dag.precision_signature() == sig0


def test_signature_covers_weighted_dependent_ops():
    """A weighted op's assigned precision feeds the memory model even when
    the op is precision-dependent, so it must be part of the signature
    (else signature-keyed memory caches would serve stale estimates)."""
    from repro.graph.dag import PrecisionDAG
    from repro.graph.ops import OperatorSpec, OpKind

    dag = PrecisionDAG()
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (4, 8)))
    dag.add_op(
        OperatorSpec("fc", OpKind.LINEAR, (4, 8), weight_shape=(8, 8)),
        inputs=["input"],
    )
    dag.add_op(
        OperatorSpec("bn", OpKind.BATCHNORM, (4, 8), weight_shape=(8,)),
        inputs=["fc"],
    )
    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["bn"])
    sig0 = dag.precision_signature()
    dag.set_precision("bn", Precision.FP16)  # dependent but weighted
    assert dag.precision_signature() != sig0


def test_structure_fingerprint_distinguishes_graphs():
    """Structurally different DAGs must never collide in cross-DAG caches,
    even though their per-instance structure_version counters coincide."""
    a = mini_model_graph("mini_bert", batch_size=4, width_scale=8,
                         spatial_scale=4)
    b = mini_model_graph("mini_bert", batch_size=4, width_scale=16,
                         spatial_scale=4)
    assert a.structure_version == b.structure_version
    assert a.structure_fingerprint() != b.structure_fingerprint()
    # Sibling copies (how PlanSession.prepare builds per-rank DAGs) share a
    # fingerprint, enabling cross-rank sharing.  NB: a copy need not match
    # its *source* — PrecisionDAG.copy() lists predecessors in insertion
    # order rather than ``inputs`` order, which the fingerprint observes
    # because cast-node emission iterates predecessors in order.
    assert a.copy().structure_fingerprint() == a.copy().structure_fingerprint()
    # Precision changes leave the fingerprint untouched.
    fp = a.structure_fingerprint()
    a.set_precision(a.adjustable_ops()[0], Precision.FP16)
    assert a.structure_fingerprint() == fp


def test_replayer_type_cache_shares_across_ranks():
    """Same-type ranks under identical plans must share one built DFG."""
    cluster = make_cluster_a(2, 2)
    builder = lambda: mini_model_graph(
        "mini_bert", batch_size=4, width_scale=8, spatial_scale=4
    )
    replayer = PlanSession().prepare(
        PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
    ).replayer
    t4_ranks = [w.rank for w in cluster.inference_workers]
    plan = {
        op: Precision.FP16
        for op in replayer.dags[t4_ranks[0]].adjustable_ops()
        if Precision.FP16 in replayer.dags[t4_ranks[0]].spec(op).supported_precisions()
    }
    # prepare copies the template once per type: same-type ranks alias it.
    assert replayer.dags[t4_ranks[0]] is replayer.dags[t4_ranks[1]]
    replayer.apply_plan(t4_ranks[0], plan)
    replayer.simulate()
    a, b = (replayer.local_dfg(r) for r in t4_ranks)
    assert a.forward is b.forward  # shared view, not a copy
    assert a.rank != b.rank
    # Unchanged DAGs must not trigger any rebuild on re-simulate.
    builds = replayer.full_rebuilds() + replayer.incremental_updates()
    replayer.simulate()
    assert replayer.full_rebuilds() + replayer.incremental_updates() == builds


def test_same_named_devices_with_different_specs_price_apart():
    """Two workers named ``T4`` sharing one catalog and cast model but not
    one DeviceSpec must not share a DFG, memory or compiled-kernel entry:
    the slower one's optimizer pass is its own, and incremental simulate()
    stays bit-identical to the from-scratch reference."""
    ctx = PlanSession().prepare(
        PlanRequest(
            model=lambda: mini_model_graph(
                "mini_bert", batch_size=4, width_scale=8, spatial_scale=4
            ),
            cluster=make_cluster_a(1, 1),
            profile_repeats=1,
        )
    )
    v100_mapper, t4_mapper = ctx.replayer.mappers[0], ctx.replayer.mappers[1]
    slow_t4 = dataclasses.replace(T4, mem_bandwidth=T4.mem_bandwidth / 2)
    cluster = Cluster(
        name="same-named",
        workers=(
            Worker(0, V100, 300 * GBPS),
            Worker(1, T4, 32 * GBPS),
            Worker(2, slow_t4, 32 * GBPS),
        ),
    )
    mappers = {0: v100_mapper, 1: t4_mapper, 2: t4_mapper}
    catalogs = {r: m.catalog for r, m in mappers.items()}
    casts = {r: m.cast_calc for r, m in mappers.items()}

    def replayer(incremental):
        dags = {w.rank: ctx.template.copy() for w in cluster.workers}
        return Replayer(cluster, dags, catalogs, casts, incremental=incremental)

    inc, ref = replayer(True), replayer(False)
    for rank in (1, 2):
        assert (
            inc.local_dfg(rank).optimizer.duration
            == ref.local_dfg(rank).optimizer.duration
        )
    assert (
        inc.local_dfg(1).optimizer.duration
        < inc.local_dfg(2).optimizer.duration
    )
    assert (
        inc.simulate().iteration_time.hex()
        == ref.simulate().iteration_time.hex()
    )


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
def test_allocator_identical_with_and_without_caches(cluster_name):
    """Allocator plans and reports must be identical before/after the
    caching layers (incremental engine vs. forced full rebuilds)."""
    def run(incremental):
        cluster = CLUSTERS[cluster_name]()
        builder = lambda: mini_model_graph("mini_bert", batch_size=4,
                                           width_scale=8, spatial_scale=4)
        replayer = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
        ).replayer
        replayer.incremental = incremental
        indicators = {}
        for w in cluster.inference_workers:
            if w.device.name not in indicators:
                dag = replayer.dags[w.rank]
                stats = synthesize_stats(dag, seed=0)
                indicators[w.device.name] = VarianceIndicator(
                    dag, stats, gamma_for_loss("ce", 4)
                )
        plan, report = Allocator(replayer, indicators).allocate()
        return plan, report, replayer

    plan_inc, report_inc, replayer_inc = run(True)
    plan_full, report_full, _ = run(False)
    assert plan_inc.to_dict() == plan_full.to_dict()
    assert report_inc.t_min == report_full.t_min
    assert report_inc.initial_throughput == report_full.initial_throughput
    assert report_inc.final_throughput == report_full.final_throughput
    assert report_inc.recovery_attempts == report_full.recovery_attempts
    assert report_inc.recovery_accepted == report_full.recovery_accepted
    assert report_inc.final_counts == report_full.final_counts
    # The engine's core promise: zero full rebuilds in the recovery loop.
    assert report_inc.recovery_full_rebuilds == 0
    assert report_full.recovery_full_rebuilds > 0
    # Steady state: one full derivation per rank group (one per device
    # type), everything else deltas.
    assert len(replayer_inc.groups) == len(
        {w.device.name for w in replayer_inc.cluster.workers}
    )
    assert replayer_inc.full_rebuilds() == len(replayer_inc.groups)
