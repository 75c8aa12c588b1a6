"""Tests for collective numerics and the hybrid mixed-precision DDP trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Precision, new_rng
from repro.models import make_mini_model
from repro.parallel import (
    DataParallelTrainer,
    WorkerConfig,
    allreduce_average,
    allreduce_gradients,
)
from repro.tensor import Tensor, functional as F
from repro.tensor.modules import Linear
from repro.train import SGD, make_image_classification, make_token_classification


class TestAllreduce:
    def test_uniform_average(self):
        arrays = [np.full(4, 1.0), np.full(4, 3.0)]
        np.testing.assert_allclose(allreduce_average(arrays), 2.0)

    def test_weighted_average(self):
        arrays = [np.full(2, 0.0), np.full(2, 4.0)]
        out = allreduce_average(arrays, weights=[3.0, 1.0])
        np.testing.assert_allclose(out, 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allreduce_average([np.zeros(2), np.zeros(3)])

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            allreduce_average([np.zeros(2)], weights=[0.0])
        with pytest.raises(ValueError):
            allreduce_average([np.zeros(2), np.zeros(2)], weights=[-1.0, 2.0])

    @given(st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_average_within_bounds(self, k, seed):
        rng = new_rng(seed)
        arrays = [rng.normal(size=8) for _ in range(k)]
        out = allreduce_average(arrays)
        stacked = np.stack(arrays)
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)

    def test_gradient_allreduce_synchronizes(self):
        models = [Linear(4, 2, seed=0), Linear(4, 2, seed=0)]
        for i, m in enumerate(models):
            x = Tensor(np.ones((2, 4)) * (i + 1))
            F.cross_entropy(m(x), np.array([0, 1])).backward()
        allreduce_gradients(models)
        np.testing.assert_array_equal(models[0].weight.grad, models[1].weight.grad)

    def test_gradient_allreduce_missing_grad_raises(self):
        models = [Linear(4, 2, seed=0), Linear(4, 2, seed=0)]
        F.cross_entropy(models[0](Tensor(np.ones((1, 4)))), np.array([0])).backward()
        with pytest.raises(ValueError):
            allreduce_gradients(models)


def _image_trainer(plans, batch_sizes=None, seed=0, model_name="mini_vggbn"):
    k = len(plans)
    batch_sizes = batch_sizes or [16] * k
    workers = [
        WorkerConfig(rank=i, batch_size=batch_sizes[i], plan=plans[i])
        for i in range(k)
    ]
    return DataParallelTrainer(
        model_factory=lambda s: make_mini_model(model_name, seed=s),
        workers=workers,
        optimizer_factory=lambda m: SGD(m, lr=0.05, momentum=0.9),
        seed=seed,
    )


class TestDDPTrainer:
    def test_replicas_start_synchronized(self):
        trainer = _image_trainer([{}, {}])
        assert trainer.replicas_synchronized()

    def test_replicas_stay_synchronized_fp32(self):
        ds = make_image_classification(n_train=128, n_test=32, seed=0)
        trainer = _image_trainer([{}, {}])
        rng = new_rng(0)
        for shards in ds.shard_batches(trainer.batch_sizes, rng, epochs=1):
            trainer.step(shards)
        assert trainer.replicas_synchronized()

    def test_replicas_stay_synchronized_mixed_precision(self):
        """The synchronous invariant holds even with per-worker quantization:
        the all-reduced gradient is shared, so master weights never drift."""
        from repro.tensor.qmodules import QuantizedOp

        model = make_mini_model("mini_vggbn")
        plan = QuantizedOp.uniform_plan(model, Precision.INT8)
        ds = make_image_classification(n_train=128, n_test=32, seed=0)
        trainer = _image_trainer([{}, plan])
        rng = new_rng(0)
        for shards in ds.shard_batches(trainer.batch_sizes, rng, epochs=1):
            trainer.step(shards)
        assert trainer.replicas_synchronized()

    def test_bn_running_stats_diverge_under_dbs(self):
        """The BN mechanism behind DBS degradation: different local batch
        sizes -> different running statistics across replicas."""
        ds = make_image_classification(n_train=240, n_test=32, seed=0)
        trainer = _image_trainer([{}, {}], batch_sizes=[28, 4])
        rng = new_rng(0)
        for shards in ds.shard_batches(trainer.batch_sizes, rng, epochs=1):
            trainer.step(shards)
        bn0 = next(
            m for m in trainer.replicas[0].modules() if type(m).__name__ == "BatchNorm2d"
        )
        bn1 = next(
            m for m in trainer.replicas[1].modules() if type(m).__name__ == "BatchNorm2d"
        )
        assert not np.allclose(bn0.running_var, bn1.running_var)

    def test_ddp_equals_single_worker_without_bn(self):
        """2 workers x batch B with uniform weighting == 1 worker x batch 2B
        for BN-free models (gradient linearity) — the correctness anchor."""
        ds = make_image_classification(n_train=64, n_test=16, seed=0)
        single = make_mini_model("mini_vgg", seed=0)
        opt = SGD(single, lr=0.05, momentum=0.9)

        trainer = _image_trainer([{}, {}], batch_sizes=[8, 8], model_name="mini_vgg")
        rng = new_rng(0)
        shards_iter = ds.shard_batches([8, 8], rng, epochs=1)
        for shards in shards_iter:
            # Single-worker step on the concatenated global batch.
            xg = np.concatenate([shards[0][0], shards[1][0]])
            yg = np.concatenate([shards[0][1], shards[1][1]])
            opt.zero_grad()
            F.cross_entropy(single(Tensor(xg)), yg).backward()
            opt.step()
            trainer.step(shards)
        ref = single.state_arrays()
        ddp = trainer.replicas[0].state_arrays()
        for name in ref:
            np.testing.assert_allclose(ddp[name], ref[name], rtol=1e-10, atol=1e-12)

    def test_shard_count_mismatch(self):
        trainer = _image_trainer([{}, {}])
        with pytest.raises(ValueError):
            trainer.step([(np.zeros((4, 3, 16, 16)), np.zeros(4, dtype=int))])

    def test_training_improves_accuracy(self):
        ds = make_image_classification(n_train=512, n_test=128, seed=0)
        trainer = _image_trainer([{}, {}])
        result = trainer.train(ds, epochs=3)
        assert result.final_accuracy > 0.16  # chance = 0.10

    def test_token_model_training(self):
        from repro.train import Adam

        ds = make_token_classification(n_train=256, n_test=64, seed=0)
        workers = [
            WorkerConfig(rank=0, batch_size=16, plan={}),
            WorkerConfig(rank=1, batch_size=16, plan={}),
        ]
        trainer = DataParallelTrainer(
            model_factory=lambda s: make_mini_model("mini_bert", seed=s),
            workers=workers,
            optimizer_factory=lambda m: Adam(m, lr=3e-3),
            seed=0,
        )
        result = trainer.train(ds, epochs=2, metric="f1")
        assert result.final_accuracy > 0.25

    def test_quantized_workers_follow_loss_curve(self):
        """INT8 workers add gradient noise but training still converges
        (Theorem 1's convergence with inflated sigma)."""
        from repro.tensor.qmodules import QuantizedOp

        ds = make_image_classification(n_train=256, n_test=64, seed=0)
        model = make_mini_model("mini_vggbn")
        plan = QuantizedOp.uniform_plan(model, Precision.INT8)
        trainer = _image_trainer([{}, plan])
        result = trainer.train(ds, epochs=4)
        assert result.final_accuracy > 0.14  # chance = 0.10


class TestTimeline:
    def test_render_and_summary(self):
        from repro.hardware import make_cluster_a
        from repro.models import mini_model_graph
        from repro.parallel import render_timeline, timeline_summary
        from repro.session import PlanRequest, PlanSession

        cluster = make_cluster_a(1, 1)
        builder = lambda: mini_model_graph(
            "mini_vgg", batch_size=32, width_scale=8, spatial_scale=4
        )
        rep = PlanSession().prepare(
            PlanRequest(model=builder, cluster=cluster, profile_repeats=1)
        ).replayer
        sim = rep.simulate()
        text = render_timeline(sim.timeline)
        assert "V100" in text and "T4" in text and "#" in text
        stats = timeline_summary(sim)
        assert stats["iteration_ms"] > 0
        assert stats["max_wait_ms"] >= 0

    def test_empty_timeline(self):
        from repro.parallel import render_timeline

        assert "empty" in render_timeline([])


class TestWeightedStepLoss:
    def test_step_loss_is_global_batch_mean(self):
        """Uneven shards: the reported step loss must equal the cross-entropy
        of the concatenated global batch (shard-size weighting), not the
        unweighted mean of per-worker losses."""
        ds = make_image_classification(n_train=64, n_test=16, seed=0)
        batch_sizes = [12, 4]
        trainer = _image_trainer([{}, {}], batch_sizes=batch_sizes,
                                 model_name="mini_vgg")
        rng = new_rng(0)
        shards = next(iter(ds.shard_batches(batch_sizes, rng, epochs=1)))
        # Reference: replica-identical weights, so the global-batch loss is
        # computable on an untouched clone before the step mutates state.
        clone = make_mini_model("mini_vgg", seed=0)
        clone.load_state_arrays(trainer.replicas[0].state_arrays())
        xg = np.concatenate([shards[0][0], shards[1][0]])
        yg = np.concatenate([shards[0][1], shards[1][1]])
        expected = F.cross_entropy(clone(Tensor(xg)), yg).item()
        reported = trainer.step(shards)
        assert reported == pytest.approx(expected, rel=1e-10)
        # And the unweighted mean is genuinely different on uneven shards.
        per_worker = [
            F.cross_entropy(clone(Tensor(xb)), yb).item() for xb, yb in shards
        ]
        assert reported != pytest.approx(float(np.mean(per_worker)), rel=1e-6)


class TestWeightedSyncExactness:
    def test_dbs_weighted_ddp_equals_single_worker_global_batch(self):
        """DBS correctness anchor: K workers with *uneven* local batches and
        batch-size-weighted all-reduce must match one worker training on the
        concatenated global batch exactly (for BN-free models)."""
        from repro.train import make_image_classification

        ds = make_image_classification(n_train=120, n_test=16, seed=0)
        single = make_mini_model("mini_vgg", seed=0)
        opt = SGD(single, lr=0.05, momentum=0.9)

        batch_sizes = [12, 4]  # heterogeneous, as DBS would assign
        trainer = _image_trainer([{}, {}], batch_sizes=batch_sizes,
                                 model_name="mini_vgg")
        rng = new_rng(0)
        for shards in ds.shard_batches(batch_sizes, rng, epochs=1):
            xg = np.concatenate([shards[0][0], shards[1][0]])
            yg = np.concatenate([shards[0][1], shards[1][1]])
            opt.zero_grad()
            F.cross_entropy(single(Tensor(xg)), yg).backward()
            opt.step()
            trainer.step(shards)
        ref = single.state_arrays()
        ddp = trainer.replicas[0].state_arrays()
        for name in ref:
            np.testing.assert_allclose(ddp[name], ref[name], rtol=1e-10,
                                       atol=1e-12)
