"""Tests for the training substrate: optimizers, data, metrics, loops."""

import numpy as np
import pytest

from repro.common import new_rng
from repro.models import make_mini_model
from repro.tensor import Tensor, functional as F
from repro.tensor.modules import Linear, Sequential
from repro.train import (
    SGD,
    Adam,
    evaluate,
    f1_macro,
    make_image_classification,
    make_token_classification,
    top1_accuracy,
)


def mean_square(out: Tensor) -> Tensor:
    """Mean squared error against a zero target."""
    return F.mean(out * out)


def train_fp32(model, dataset, optimizer, epochs, metric="top1"):
    """Plain single-worker FP32 training on batches of 32, evaluated after
    each epoch; returns (per-epoch accuracy, per-step losses)."""
    rng = np.random.default_rng(0)
    history, losses = [], []
    for _ in range(epochs):
        for xb, yb in dataset.batches(32, rng, epochs=1):
            optimizer.zero_grad()
            x = xb if np.issubdtype(xb.dtype, np.integer) else Tensor(xb)
            loss = F.cross_entropy(model(x), yb)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history.append(evaluate(model, dataset, metric=metric))
    return history, losses


class TestOptimizers:
    def _quadratic_model(self):
        m = Linear(2, 1, bias=False, seed=0)
        m.weight.data = np.array([[5.0, -3.0]])
        return m

    def test_sgd_reduces_loss(self):
        model = self._quadratic_model()
        opt = SGD(model, lr=0.05, momentum=0.9)
        x = Tensor(np.eye(2))
        target = np.zeros((2, 1))
        losses = []
        for _ in range(50):
            opt.zero_grad()
            loss = mean_square(model(x))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 1e-3 * losses[0]

    def test_adam_reduces_loss(self):
        model = self._quadratic_model()
        opt = Adam(model, lr=0.2)
        x = Tensor(np.eye(2))
        target = np.zeros((2, 1))
        for _ in range(100):
            opt.zero_grad()
            loss = mean_square(model(x))
            loss.backward()
            opt.step()
        assert loss.item() < 1e-2

    def test_weight_decay_shrinks_weights(self):
        m1, m2 = self._quadratic_model(), self._quadratic_model()
        for model, wd in ((m1, 0.0), (m2, 0.5)):
            opt = SGD(model, lr=0.1, momentum=0.0, weight_decay=wd)
            opt.zero_grad()
            loss = mean_square(model(Tensor(np.zeros((1, 2)))))
            loss.backward()
            opt.step()
        assert np.linalg.norm(m2.weight.data) < np.linalg.norm(m1.weight.data)

    def test_momentum_accumulates(self):
        model = self._quadratic_model()
        opt = SGD(model, lr=0.01, momentum=0.9)
        x = Tensor(np.eye(2))
        w0 = model.weight.data.copy()
        for _ in range(2):
            opt.zero_grad()
            mean_square(model(x)).backward()
            opt.step()
        # Second step moves further than a fresh first step would.
        assert np.linalg.norm(opt._velocity[0]) > 0

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(self._quadratic_model(), lr=0.0)


class TestData:
    def test_image_dataset_shapes(self):
        ds = make_image_classification(n_train=128, n_test=32, image_size=16)
        assert ds.train_x.shape == (128, 3, 16, 16)
        assert ds.test_y.shape == (32,)
        assert ds.num_classes == 10

    def test_token_dataset_in_vocab(self):
        ds = make_token_classification(n_train=64, n_test=16, vocab_size=64)
        assert ds.train_x.max() < 64
        assert ds.train_x.min() >= 0

    def test_datasets_deterministic(self):
        a = make_image_classification(n_train=32, n_test=8, seed=5)
        b = make_image_classification(n_train=32, n_test=8, seed=5)
        np.testing.assert_array_equal(a.train_x, b.train_x)

    def test_batches_cover_epoch(self):
        ds = make_image_classification(n_train=64, n_test=8)
        batches = list(ds.batches(16, new_rng(0), epochs=1))
        assert len(batches) == 4
        assert all(x.shape[0] == 16 for x, _ in batches)

    def test_shard_batches_heterogeneous(self):
        ds = make_image_classification(n_train=120, n_test=8)
        shards_list = list(ds.shard_batches([16, 8, 4], new_rng(0), epochs=1))
        assert len(shards_list) == 120 // 28
        for shards in shards_list:
            assert [x.shape[0] for x, _ in shards] == [16, 8, 4]

    def test_image_task_learnable_but_not_trivial(self):
        """A linear probe beats chance but stays below ~90 %: the task has
        headroom for accuracy deltas."""
        ds = make_image_classification(n_train=1024, n_test=256, seed=0)
        model = Sequential(
            # flatten + linear probe
        )
        flat_dim = 3 * 16 * 16
        probe = Linear(flat_dim, 10, seed=0)
        opt = SGD(probe, lr=0.05, momentum=0.9)
        rng = new_rng(1)
        for xb, yb in ds.batches(64, rng, epochs=5):
            opt.zero_grad()
            logits = probe(Tensor(xb.reshape(len(yb), -1)))
            F.cross_entropy(logits, yb).backward()
            opt.step()
        logits = probe(Tensor(ds.test_x.reshape(len(ds.test_y), -1))).numpy()
        acc = top1_accuracy(logits, ds.test_y)
        assert 0.3 < acc < 0.95


class TestMetrics:
    def test_top1_perfect(self):
        logits = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert top1_accuracy(logits, np.array([0, 1])) == 1.0

    def test_top1_half(self):
        logits = np.array([[2.0, 0.0], [2.0, 0.0]])
        assert top1_accuracy(logits, np.array([0, 1])) == 0.5

    def test_f1_perfect(self):
        logits = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert f1_macro(logits, np.array([0, 1])) == 1.0

    def test_f1_penalizes_collapse(self):
        # Predicting one class everywhere: F1 < accuracy.
        logits = np.tile(np.array([[5.0, 0.0]]), (10, 1))
        labels = np.array([0] * 9 + [1])
        assert f1_macro(logits, labels) < top1_accuracy(logits, labels)


class TestTrainLoop:
    def test_mini_model_learns(self):
        ds = make_image_classification(n_train=512, n_test=128, seed=0)
        model = make_mini_model("mini_vggbn", seed=0)
        opt = SGD(model, lr=0.05, momentum=0.9)
        history, losses = train_fp32(model, ds, opt, epochs=2)
        assert history[-1] > 0.18  # chance = 0.10
        assert len(history) == 2
        assert losses[0] > losses[-1]

    def test_evaluate_runs_in_eval_mode(self):
        ds = make_image_classification(n_train=64, n_test=32, seed=0)
        model = make_mini_model("mini_vggbn", seed=0)
        evaluate(model, ds)
        assert model.training  # restored after evaluation

    def test_transformer_learns_token_task(self):
        ds = make_token_classification(n_train=512, n_test=128, seed=0)
        model = make_mini_model("mini_bert", seed=0)
        opt = Adam(model, lr=3e-3)
        history, _ = train_fp32(model, ds, opt, epochs=3, metric="f1")
        assert history[-1] > 0.4
