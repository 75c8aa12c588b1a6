"""Failure-injection tests: every subsystem must fail loudly and precisely
when handed broken inputs, not propagate garbage into plans or training."""

import numpy as np
import pytest

from repro.backend import LPBackend
from repro.backend.kernels import KernelTemplate
from repro.common import Precision, new_rng
from repro.common.errors import (
    GraphConsistencyError,
    InfeasiblePlanError,
    KernelConfigError,
    UnsupportedPrecisionError,
)
from repro.core.dfg import CommBucket, LocalDFG
from repro.graph.dag import PrecisionDAG
from repro.graph.ops import OperatorSpec, OpKind
from repro.hardware import V100, make_cluster_b
from repro.models import make_mini_model, mini_model_graph
from repro.parallel import DataParallelTrainer, WorkerConfig
from repro.session import PlanRequest, PlanSession
from repro.tensor import Tensor
from repro.tensor.modules import Linear
from repro.train import SGD


class TestGraphFailures:
    def test_cycle_detected(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("a", OpKind.INPUT, (1,)))
        dag.add_op(OperatorSpec("b", OpKind.RELU, (1,)), inputs=["a"])
        dag._succs["b"].append("a")  # sabotage: a back edge b -> a
        dag._preds["a"].append("b")
        with pytest.raises(GraphConsistencyError, match="cycle"):
            dag.validate()

    def test_two_components_rejected(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("a", OpKind.INPUT, (1,)))
        dag.add_op(OperatorSpec("b", OpKind.RELU, (1,)), inputs=["a"])
        dag.add_op(OperatorSpec("x", OpKind.INPUT, (1,)))
        dag.add_op(OperatorSpec("y", OpKind.RELU, (1,)), inputs=["x"])
        with pytest.raises(GraphConsistencyError):
            dag.validate()

    def test_empty_graph_has_no_root(self):
        with pytest.raises(GraphConsistencyError):
            PrecisionDAG().root()

    def test_set_precision_unknown_node(self):
        dag = PrecisionDAG()
        dag.add_op(OperatorSpec("a", OpKind.INPUT, (1,)))
        with pytest.raises(KeyError):
            dag.set_precision("ghost", Precision.FP16)


class TestBackendFailures:
    def test_v100_int8_rejected_at_every_surface(self):
        be = LPBackend(V100)
        spec = OperatorSpec("c", OpKind.CONV2D, (1, 8, 4, 4),
                            weight_shape=(8, 3, 3, 3), flops=1e6)
        with pytest.raises(UnsupportedPrecisionError):
            be.op_forward_time(spec, Precision.INT8, 100)
        with pytest.raises(UnsupportedPrecisionError):
            V100.flops_at(Precision.INT8)

    def test_kernel_template_validation_is_eager(self):
        with pytest.raises(KernelConfigError):
            KernelTemplate((100, 128, 32), (64, 64, 32), (16, 8, 8))


class TestDFGFailures:
    def test_bucket_without_readiness_rejected(self):
        dfg = LocalDFG("T4", 0)
        with pytest.raises(ValueError):
            dfg.set_buckets([CommBucket(0, 10, ("x",))], {})

    def test_bucket_readiness_for_unknown_bucket_rejected(self):
        dfg = LocalDFG("T4", 0)
        with pytest.raises(ValueError):
            dfg.set_buckets([CommBucket(0, 10, ("x",))], {0: 0, 1: 0})


class TestAllocatorFailures:
    def test_impossible_memory_is_reported_not_silent(self):
        cluster = make_cluster_b(1, 1, memory_ratio=0.01)
        builder = lambda: mini_model_graph(
            "mini_vggbn", batch_size=512, width_scale=16, spatial_scale=4
        )
        with pytest.raises(InfeasiblePlanError):
            PlanSession().plan(
                PlanRequest(model=builder, cluster=cluster, loss="ce")
            )


class TestTrainerFailures:
    def test_plan_with_bad_path_fails_at_install_not_midtraining(self):
        workers = [
            WorkerConfig(rank=0, batch_size=4,
                         plan={"nonexistent.layer": Precision.INT8}),
        ]
        with pytest.raises(KeyError):
            DataParallelTrainer(
                model_factory=lambda s: make_mini_model("mini_vggbn", seed=s),
                workers=workers,
                optimizer_factory=lambda m: SGD(m, lr=0.1),
            )

    def test_no_workers_rejected(self):
        with pytest.raises(ValueError):
            DataParallelTrainer(
                model_factory=lambda s: make_mini_model("mini_vgg", seed=s),
                workers=[],
                optimizer_factory=lambda m: SGD(m, lr=0.1),
            )

    def test_divergent_replica_detected(self):
        workers = [
            WorkerConfig(rank=r, batch_size=4, plan={})
            for r in range(2)
        ]
        trainer = DataParallelTrainer(
            model_factory=lambda s: make_mini_model("mini_vgg", seed=s),
            workers=workers,
            optimizer_factory=lambda m: SGD(m, lr=0.1),
        )
        # Sabotage one replica's weights.
        next(iter(trainer.replicas[1].parameters())).data += 1.0
        assert not trainer.replicas_synchronized()


class TestNumericsFailures:
    def test_backward_twice_accumulates_rather_than_corrupts(self):
        lin = Linear(3, 2, seed=0)
        x = Tensor(new_rng(0).normal(size=(2, 3)))
        out = lin(x)
        out.backward()
        g1 = lin.weight.grad.copy()
        out2 = lin(x)
        out2.backward()
        np.testing.assert_allclose(lin.weight.grad, 2 * g1)

    def test_nan_inputs_surface_in_outputs(self):
        # No silent sanitization: garbage in, visibly garbage out.
        lin = Linear(3, 2, seed=0)
        out = lin(Tensor(np.full((1, 3), np.nan)))
        assert np.all(np.isnan(out.numpy()))
