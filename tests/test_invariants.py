"""Cross-module invariants and property-based tests.

These pin down the contracts the subsystems rely on: precision propagation,
bucket partitioning, memory-ladder monotonicity, simulation sanity, plan
validity, and end-to-end plan->training compatibility.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Precision, new_rng
from repro.common.units import GBPS
from repro.core import AllocatorConfig
from repro.core.dfg import CommBucket, DFGNode, GlobalDFG, LocalDFG, NodeKind, assign_buckets
from repro.engine.core import execute_global_dfg
from repro.graph.propagation import effective_precisions, output_precision
from repro.hardware import T4, make_cluster_a
from repro.hardware.cluster import Cluster, Worker
from repro.models import (
    MODEL_GRAPHS,
    make_mini_model,
    mini_model_graph,
)
from repro.models.trainable import MINI_MODELS
from repro.profiling import MemoryModel
from repro.session import PlanRequest, PlanSession
from repro.tensor import Tensor, functional as F
from repro.tensor.qmodules import QuantizedOp


class TestPrecisionPropagationInvariants:
    @pytest.mark.parametrize("name", sorted(MINI_MODELS))
    def test_dependent_precision_is_max_of_inputs(self, name):
        dag = mini_model_graph(name, batch_size=4)
        rng = new_rng(0)
        # Random plan over adjustable ops.
        for op in dag.adjustable_ops():
            cands = dag.spec(op).supported_precisions()
            dag.set_precision(op, cands[rng.integers(len(cands))])
        eff = effective_precisions(dag)
        for node in dag.nodes():
            if not dag.spec(node).is_dependent:
                continue
            preds = dag.predecessors(node)
            in_precs = [output_precision(eff[p]) for p in preds]
            assert eff[node] is max(in_precs, key=lambda p: p.bits)

    def test_effective_covers_every_node(self):
        dag = mini_model_graph("mini_resnet", batch_size=4)
        eff = effective_precisions(dag)
        assert set(eff) == set(dag.nodes())


class TestBucketInvariants:
    @given(
        st.lists(st.integers(min_value=1, max_value=50 * 1024**2),
                 min_size=1, max_size=40),
        st.integers(min_value=1024, max_value=100 * 1024**2),
    )
    @settings(max_examples=40, deadline=None)
    def test_buckets_partition_ops(self, sizes, cap):
        ops = [(f"op{i}", s) for i, s in enumerate(sizes)]
        buckets = assign_buckets(ops, bucket_cap_bytes=cap)
        flat = [op for b in buckets for op in b.ops]
        assert flat == [name for name, _ in ops]  # order preserved, complete
        assert [b.index for b in buckets] == list(range(len(buckets)))
        assert sum(b.nbytes for b in buckets) == sum(sizes)

    @given(
        st.lists(st.integers(min_value=1, max_value=10**6),
                 min_size=1, max_size=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_bucket_stops_at_first_overflow(self, sizes):
        cap = 2 * 10**6
        ops = [(f"op{i}", s) for i, s in enumerate(sizes)]
        buckets = assign_buckets(ops, bucket_cap_bytes=cap)
        for b in buckets:
            # Removing the last op must bring the bucket under the cap.
            without_last = b.nbytes - dict(ops)[b.ops[-1]]
            assert without_last < cap


class TestMemoryLadder:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: mini_model_graph("mini_vggbn", batch_size=64,
                                     width_scale=8, spatial_scale=4),
            lambda: mini_model_graph("mini_bert", batch_size=16,
                                     width_scale=24, spatial_scale=8),
            lambda: MODEL_GRAPHS["resnet50"](batch_size=8),
            lambda: MODEL_GRAPHS["vgg16"](batch_size=64, image_size=64),
        ],
    )
    def test_uniform_ladder_monotone(self, builder):
        """Lower uniform precision never needs more memory — in the
        activation-dominated regime (training batch sizes).  At tiny batch
        the FP16 *weight copies* can outweigh activation savings (true of
        real AMP as well), which is why the VGG16 case uses batch 64."""
        dag = builder()
        mm = MemoryModel()
        totals = {}
        for prec in (Precision.INT8, Precision.FP16, Precision.FP32):
            for op in dag.adjustable_ops():
                cands = dag.spec(op).supported_precisions()
                usable = [p for p in cands if p.bits >= prec.bits]
                dag.set_precision(op, min(usable, key=lambda p: p.bits)
                                  if usable else cands[-1])
            totals[prec] = mm.estimate(dag).total
        assert totals[Precision.INT8] <= totals[Precision.FP16]
        assert totals[Precision.FP16] <= totals[Precision.FP32]


class TestSimulationInvariants:
    def _random_gdfg(self, rng, n_devices=3, n_buckets=2):
        locals_ = []
        for rank in range(n_devices):
            dfg = LocalDFG(f"dev{rank}", rank)
            for i in range(4):
                dfg.add_forward(DFGNode(f"f{i}", NodeKind.FORWARD,
                                        float(rng.uniform(1e-4, 1e-2))))
            for i in range(6):
                dfg.add_backward(DFGNode(f"b{i}", NodeKind.BACKWARD,
                                         float(rng.uniform(1e-4, 1e-2)),
                                         op=f"op{i}"))
            buckets = [CommBucket(j, int(rng.integers(10**5, 10**7)),
                                  (f"op{2*j}", f"op{2*j+1}"))
                       for j in range(n_buckets)]
            ready = {j: 2 * j + 1 for j in range(n_buckets)}
            dfg.set_buckets(buckets, ready)
            dfg.set_optimizer(float(rng.uniform(1e-4, 1e-3)))
            locals_.append(dfg)
        return GlobalDFG(locals_)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_iteration_at_least_slowest_device(self, seed):
        rng = new_rng(seed)
        gdfg = self._random_gdfg(rng)
        cluster = Cluster(
            name="x",
            workers=tuple(
                Worker(rank=r, device=T4, link_bandwidth=32 * GBPS)
                for r in range(3)
            ),
        )
        sim = execute_global_dfg(gdfg, cluster)
        slowest = max(l.compute_time for l in gdfg.locals)
        assert sim.iteration_time >= slowest
        assert all(w >= 0 for w in sim.comm_wait_time.values())

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_comm_slots_serialize(self, seed):
        """Collectives are ordered: with timeline collection, comm events
        never overlap each other (Eq. 6's comm_end_{n-1} term)."""
        rng = new_rng(seed)
        gdfg = self._random_gdfg(rng)
        cluster = Cluster(
            name="x",
            workers=tuple(
                Worker(rank=r, device=T4, link_bandwidth=32 * GBPS)
                for r in range(3)
            ),
        )
        sim = execute_global_dfg(gdfg, cluster)
        comm = sorted(
            {(e.start, e.end) for e in sim.timeline if e.stream == "comm"}
        )
        for (s1, e1), (s2, e2) in zip(comm, comm[1:]):
            assert s2 >= e1 - 1e-12


class TestPlanValidity:
    def test_allocated_plan_respects_kernel_and_device_support(self):
        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_bert", batch_size=8, width_scale=24, spatial_scale=8
        )
        plan = PlanSession().plan(
            PlanRequest(model=builder, cluster=cluster, loss="ce")
        ).plan
        dag = builder()
        device = cluster.inference_workers[0].device
        for op, prec in plan.for_device("T4").items():
            assert prec in dag.spec(op).supported_precisions()
            assert device.supports(prec)


class TestEndToEndPlanInstall:
    @pytest.mark.parametrize("name", ["mini_vggbn", "mini_resnet", "mini_bert"])
    def test_session_plan_installs_and_trains_a_step(self, name):
        """Full pipeline: allocate on the scaled graph, install on the
        executable twin by name, run a real quantized training step."""
        cluster = make_cluster_a(1, 1)
        scale = dict(width_scale=8, spatial_scale=2)
        builder = lambda: mini_model_graph(name, batch_size=8, **scale)
        plan = PlanSession().plan(
            PlanRequest(
                model=builder,
                cluster=cluster,
                loss="ce",
                config=AllocatorConfig(max_recovery_steps=30),
            )
        ).plan
        model = make_mini_model(name, seed=0)
        dag = builder()
        exec_plan = {
            op: prec
            for op, prec in plan.for_device("T4").items()
            if dag.spec(op).has_weight and prec is not Precision.FP32
        }
        QuantizedOp.install_plan(model, exec_plan)
        rng = new_rng(0)
        if name == "mini_bert":
            x = rng.integers(0, 64, size=(4, 16))
        else:
            x = Tensor(rng.normal(size=(4, 3, 16, 16)))
        loss = F.cross_entropy(model(x), rng.integers(0, 4, size=4))
        loss.backward()
        for p in model.parameters():
            assert p.grad is not None and np.all(np.isfinite(p.grad))
