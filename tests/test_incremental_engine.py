"""Equivalence tests for the incremental replay engine.

The engine's contract: dirty-tracked delta updates (DAG version counters,
`propagate_dirty` cones, Cost Mapper re-pricing through its per-op price
memo, the DFG and memory terms each rank group's Cost Mapper retains) must be
*observationally identical* to rebuilding everything from scratch.  These
tests drive randomized sequences of single-op precision changes on both
cluster presets and compare node-for-node against fresh rebuilds, and run
the full Allocator in both modes asserting byte-identical plans.
"""

import dataclasses

import pytest

from repro.backend import LPBackend
from repro.common import GBPS, Precision, new_rng
from repro.core import CostMapper
from repro.core.allocator import Allocator
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.core.replayer import Replayer
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OperatorSpec, OpKind
from repro.graph.propagation import effective_precisions, propagate_dirty
from repro.hardware import T4, V100, Cluster, Worker, make_cluster_a, make_cluster_b
from repro.models import mini_model_graph
from repro.profiling import (
    CastCostCalculator,
    MemoryModel,
    profile_operator_costs,
    synthesize_stats,
)
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


def _assert_mapper_matches_fresh(mapper, dag, device, rank, memory_model):
    """The mapper's DFG, memory terms and compute time equal a fresh
    mapper's full derivation over a copy of ``dag``."""
    fresh = CostMapper(
        dag.copy(), mapper.catalog, mapper.cast_calc, device=device
    ).build_local_dfg(device.name, rank)
    _assert_dfg_equal(mapper.current_dfg(device.name, rank), fresh)
    est = memory_model.estimate(dag)
    assert mapper.memory_components() == (
        est.weight_copies, est.activations, est.workspace
    )
    assert mapper.compute_time().hex() == fresh.compute_time.hex()


def _assert_whatif_matches_apply(mapper, dag, op, prec):
    """``whatif_change(op, prec)`` equals apply -> refresh -> revert, field
    for field; ops outside its neighbourhood keep their prices."""
    change = mapper.whatif_change(op, prec)
    before = dict(mapper._state.prices)
    current = dag.precision(op)
    dag.set_precision(op, prec)
    mapper.refresh()
    after = mapper._state.prices
    for name, price in after.items():
        if name not in change.fwd_sums:
            assert price == before[name]
            continue
        assert change.fwd_sums[name] == price.fwd_dur
        assert change.bwd_sums[name] == price.bwd_dur
        assert change.bwd_durs[name] == tuple(n.duration for n in price.bwd)
        assert change.bwd_pos[name] == (
            -1 if price.bwd_pos is None else price.bwd_pos
        )
    assert (
        change.wcopy_total, change.act_total, change.workspace
    ) == mapper.memory_components()
    dag.set_precision(op, current)
    mapper.refresh()


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("model", ["mini_bert", "mini_vggbn"])
def test_apply_change_walk_matches_fresh_rebuild(cluster_name, model):
    """Randomized single-op walks (Algorithm 1: ``set_precision`` then the
    mapper's incremental refresh): after every change the retained DFG,
    memory terms and compute time must equal a from-scratch derivation, and
    a what-if probe must equal apply + refresh + revert.  The walk then
    runs again from the same start, every price context a
    memo hit, under the same checks."""
    cluster = CLUSTERS[cluster_name]()
    builder = lambda: mini_model_graph(model, batch_size=4, width_scale=8,
                                       spatial_scale=4)
    replayer = PlanSession().prepare(
        PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
    ).replayer
    worker = cluster.inference_workers[0]
    rank, device = worker.rank, worker.device
    mapper = replayer.mappers[rank]
    dag = replayer.dags[rank]
    rng = new_rng(1234)
    memory_model = MemoryModel(optimizer_slots=1)
    start = dag.precision_plan()
    walk = _random_walk_ops(dag, device, rng, steps=25)
    probes = _random_walk_ops(dag, device, rng, steps=len(walk))

    # Prime the retained state so every subsequent change is a delta.
    mapper.build_local_dfg(device.name, rank)
    for (op, prec), (probe_op, probe_prec) in zip(walk, probes):
        dag.set_precision(op, prec)
        mapper.current_dfg(device.name, rank)
        _assert_mapper_matches_fresh(mapper, dag, device, rank, memory_model)
        assert replayer.memory_estimate(rank) == memory_model.estimate(dag)
        _assert_whatif_matches_apply(mapper, dag, probe_op, probe_prec)

    dag.apply_plan(start)
    _assert_mapper_matches_fresh(mapper, dag, device, rank, memory_model)
    size = len(mapper._prices)
    assert size > 0
    for op, prec in walk:
        dag.set_precision(op, prec)
        mapper.current_dfg(device.name, rank)
        _assert_mapper_matches_fresh(mapper, dag, device, rank, memory_model)
    assert len(mapper._prices) == size  # the revisit priced nothing anew
    assert mapper.full_rebuilds == 1
    assert mapper.incremental_updates > 0


def _chain(with_loss: bool) -> PrecisionDAG:
    """input -> fc1 -> relu -> fc2 [-> loss]."""
    dag = PrecisionDAG()
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (64, 256)))
    dag.add_op(
        OperatorSpec("fc1", OpKind.LINEAR, (64, 512), weight_shape=(512, 256),
                     flops=2.0 * 64 * 256 * 512),
        inputs=["input"],
    )
    dag.add_op(OperatorSpec("relu", OpKind.RELU, (64, 512), flops=64.0 * 512),
               inputs=["fc1"])
    dag.add_op(
        OperatorSpec("fc2", OpKind.LINEAR, (64, 256), weight_shape=(256, 512),
                     flops=2.0 * 64 * 512 * 256),
        inputs=["relu"],
    )
    if with_loss:
        dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["fc2"])
    return dag


def test_structure_change_empties_price_memo():
    """Adding an op changes its producer's successors, so a price memoized
    before the edit could miss the new gradient cast: the memo must empty
    on the next refresh, and the DFG after it must equal a fresh one."""
    backend = LPBackend(T4)
    catalog = profile_operator_costs(_chain(True), backend, repeats=1)
    casts = CastCostCalculator(backend)
    dag = _chain(False)
    mapper = CostMapper(dag, catalog, casts, device=T4)
    memory_model = MemoryModel(optimizer_slots=1)
    mapper.refresh()
    # Leaves the memo holding fc2 at FP16 beside an FP16 relu, priced with
    # no successor, and fc2 back at FP32.
    for op, prec in [("fc1", Precision.FP16), ("fc2", Precision.FP16),
                     ("fc2", Precision.FP32)]:
        dag.set_precision(op, prec)
        _assert_mapper_matches_fresh(mapper, dag, T4, 0, memory_model)
    assert mapper._prices

    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["fc2"])
    mapper.refresh()
    assert mapper._prices == {}
    assert mapper._contexts == {}
    # The FP32 loss now hands fc2 an FP32 gradient to cast down.
    dag.set_precision("fc2", Precision.FP16)
    _assert_mapper_matches_fresh(mapper, dag, T4, 0, memory_model)


@pytest.mark.parametrize("incremental", [True, False])
def test_compute_time_matches_assembled_dfg(incremental):
    """``Replayer.compute_time`` is ``local_dfg(r).compute_time`` bit for
    bit along a brute-force-like trial sequence, for every rank of the
    planned group, in both modes."""
    cluster = make_cluster_a(2, 2)
    builder = lambda: mini_model_graph("mini_bert", batch_size=4,
                                       width_scale=8, spatial_scale=4)
    replayer = PlanSession().prepare(
        PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
    ).replayer
    replayer.incremental = incremental
    ranks = [w.rank for w in cluster.inference_workers]
    device = cluster.inference_workers[0].device
    dag = replayer.dags[ranks[0]]
    rng = new_rng(99)
    base = dag.precision_plan()
    for _ in range(12):
        trial = dict(base)
        trial.update(_random_walk_ops(dag, device, rng, steps=4))
        replayer.apply_plan(ranks[0], trial)
        replayer.memory_estimate(ranks[0])
        for rank in ranks:
            assert (
                replayer.compute_time(rank).hex()
                == replayer.local_dfg(rank).compute_time.hex()
            )


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
    assert a is b  # one DFG per group, not a copy per rank
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
    plan_full, report_full, replayer_full = run(False)
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
    # The reference mode prices from scratch: no mapper's memo is touched.
    assert all(not group.mapper._prices for group in replayer_full.groups)
