"""Finer-grained Cost Mapper / Replayer path coverage: gradient-format
casts between mixed neighbours, dependent-op kernel fallbacks, profiling
artifact sharing across same-type workers."""

import pytest

from repro.backend import LPBackend
from repro.common import Precision
from repro.core import CostMapper
from repro.core.dfg import NodeKind
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OperatorSpec, OpKind
from repro.hardware import T4, make_cluster_a
from repro.models import mini_model_graph
from repro.profiling import CastCostCalculator, profile_operator_costs
from repro.session import PlanRequest, PlanSession


def _chain_dag() -> PrecisionDAG:
    """input -> fc1 -> relu -> fc2 -> loss with production-ish sizes."""
    dag = PrecisionDAG()
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (64, 1024)))
    dag.add_op(
        OperatorSpec("fc1", OpKind.LINEAR, (64, 2048), weight_shape=(2048, 1024),
                     flops=2.0 * 64 * 1024 * 2048),
        inputs=["input"],
    )
    dag.add_op(
        OperatorSpec("relu", OpKind.RELU, (64, 2048),
                     flops=64.0 * 2048),
        inputs=["fc1"],
    )
    dag.add_op(
        OperatorSpec("fc2", OpKind.LINEAR, (64, 1024), weight_shape=(1024, 2048),
                     flops=2.0 * 64 * 2048 * 1024),
        inputs=["relu"],
    )
    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["fc2"])
    return dag


@pytest.fixture(scope="module")
def chain_setup():
    dag = _chain_dag()
    backend = LPBackend(T4)
    catalog = profile_operator_costs(dag, backend, repeats=1)
    casts = CastCostCalculator(backend)
    return dag, catalog, casts


class TestGradientCastPaths:
    def test_fp16_fp32_boundary_creates_grad_cast(self, chain_setup):
        """fc1 at FP16, fc2 at FP32: fc1's gradient arrives from the FP32
        side and must be cast to FP16 on the way back."""
        dag, catalog, casts = chain_setup
        work = dag.copy()
        work.set_precision("fc1", Precision.FP16)
        mapper = CostMapper(work, catalog, casts, device=T4)
        dfg = mapper.build_local_dfg("T4", 0)
        grad_casts = [
            n for n in dfg.backward if n.kind is NodeKind.CAST and n.name.startswith("cast:g:")
        ]
        assert grad_casts, "expected a gradient-format cast at the boundary"

    def test_matching_precisions_no_grad_cast(self, chain_setup):
        dag, catalog, casts = chain_setup
        work = dag.copy()
        work.set_precision("fc1", Precision.FP16)
        work.set_precision("fc2", Precision.FP16)
        mapper = CostMapper(work, catalog, casts, device=T4)
        dfg = mapper.build_local_dfg("T4", 0)
        # relu cascades to FP16, both linears FP16: the only casts are the
        # forward input/weight casts at the FP32 graph input.
        grad_casts = [
            n for n in dfg.backward if n.name.startswith("cast:g:")
        ]
        # fc2's gradient to relu and relu's to fc1 are all FP16 -> none
        # except at the loss (FP32) boundary.
        assert all("loss" in n.name or "fc2" in n.name for n in grad_casts)

    def test_int8_op_grad_stream_is_fp16(self, chain_setup):
        """An INT8 op's backward runs FP16 (footnote 2): its neighbour at
        FP32 must see exactly one FP16<->FP32 gradient cast, and the INT8
        op's own backward cost is the FP16-kernel cost."""
        dag, catalog, casts = chain_setup
        work = dag.copy()
        work.set_precision("fc2", Precision.INT8)
        mapper = CostMapper(work, catalog, casts, device=T4)
        dfg = mapper.build_local_dfg("T4", 0)
        bwd_fc2 = next(n for n in dfg.backward if n.name == "bwd:fc2")
        # Catalog stores the INT8 entry with its FP16 backward (the backend
        # models footnote 2); it must differ from the FP32 backward.
        assert bwd_fc2.duration == pytest.approx(
            catalog.get("fc2", Precision.INT8).backward
        )
        assert bwd_fc2.duration < catalog.get("fc2", Precision.FP32).backward


class TestDependentKernelFallback:
    def test_dependent_op_without_profile_uses_fp32(self, chain_setup):
        """An effective precision with no catalog entry must fall back
        rather than KeyError (dependent ops are profiled at FP16/FP32)."""
        dag, catalog, casts = chain_setup
        work = dag.copy()
        work.set_precision("fc1", Precision.INT8)  # relu becomes FP32-effective
        mapper = CostMapper(work, catalog, casts, device=T4)
        dfg = mapper.build_local_dfg("T4", 0)  # must not raise
        assert dfg.compute_time > 0


class TestProfilingArtifactSharing:
    def test_same_type_workers_share_catalogs(self):
        cluster = make_cluster_a(2, 2)
        replayer = PlanSession().prepare(
            PlanRequest(
                model=lambda: mini_model_graph("mini_vgg", batch_size=8),
                cluster=cluster,
                profile_repeats=1,
            )
        ).replayer
        # Ranks 0/1 are V100, 2/3 are T4: catalog objects shared per type.
        assert replayer.mappers[0].catalog is replayer.mappers[1].catalog
        assert replayer.mappers[2].catalog is replayer.mappers[3].catalog
        assert replayer.mappers[0].catalog is not replayer.mappers[2].catalog

    def test_each_rank_owns_its_dag(self):
        cluster = make_cluster_a(1, 1)
        replayer = PlanSession().prepare(
            PlanRequest(
                model=lambda: mini_model_graph("mini_vgg", batch_size=8),
                cluster=cluster,
                profile_repeats=1,
            )
        ).replayer
        replayer.dags[1].set_precision(
            replayer.dags[1].adjustable_ops()[0], Precision.FP16
        )
        op = replayer.dags[0].adjustable_ops()[0]
        assert replayer.dags[0].precision(op) is Precision.FP32
