"""Autodiff engine tests: every op is checked against numerical gradients."""

import numpy as np
import pytest

from repro.common import Precision, new_rng
from repro.tensor import Tensor, functional as F, no_grad
from repro.tensor.modules import (
    BatchNorm2d,
    Conv2d,
    Embedding,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    ReLU,
    Sequential,
)
from repro.tensor.qmodules import PrecisionConfig, QuantizedOp


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn wrt x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn()
        flat[i] = orig - eps
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_grads(build_loss, tensors, rtol=1e-4, atol=1e-6):
    """Compare autodiff grads against numerical grads for each tensor.

    ``build_loss`` may return a non-scalar tensor: ``backward()`` seeds it
    with ones, so the checked loss is the sum of its elements."""
    loss = build_loss()
    loss.backward()
    analytic = []
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        analytic.append(t.grad.copy())
    for t, ag in zip(tensors, analytic):
        num = numerical_grad(lambda: build_loss().data.sum(), t.data)
        np.testing.assert_allclose(ag, num, rtol=rtol, atol=atol)


class TestElementwise:
    def test_add_mul(self):
        rng = new_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)

        def loss():
            a.zero_grad(), b.zero_grad()
            return (a + b) * a * b

        check_grads(loss, [a, b])

    def test_broadcast_add(self):
        rng = new_rng(1)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)

        def loss():
            a.zero_grad(), b.zero_grad()
            return a + b

        check_grads(loss, [a, b])

    def test_activations(self):
        rng = new_rng(3)
        a = Tensor(rng.normal(size=(6,)) * 2, requires_grad=True)
        for op in (F.relu, F.gelu):
            def loss(op=op):
                a.zero_grad()
                return op(a)

            loss_val = loss()
            loss_val.backward()
            analytic = a.grad.copy()
            num = numerical_grad(lambda: loss().data.sum(), a.data)
            np.testing.assert_allclose(analytic, num, rtol=1e-4, atol=1e-6)


class TestLinearAlgebra:
    def test_matmul(self):
        rng = new_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def loss():
            a.zero_grad(), b.zero_grad()
            return F.matmul(a, b)

        check_grads(loss, [a, b])

    def test_batched_matmul(self):
        rng = new_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)

        def loss():
            a.zero_grad(), b.zero_grad()
            return F.matmul(a, b)

        check_grads(loss, [a, b])

    def test_linear_3d_input(self):
        rng = new_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)

        def loss():
            x.zero_grad(), w.zero_grad(), b.zero_grad()
            return F.linear(x, w, b) * F.linear(x, w, b)

        check_grads(loss, [x, w, b])


class TestConvPool:
    def test_conv2d_grads(self):
        rng = new_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.3, requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)

        def loss():
            x.zero_grad(), w.zero_grad(), b.zero_grad()
            out = F.conv2d(x, w, b, stride=1, padding=1)
            return out * out

        check_grads(loss, [x, w, b], rtol=1e-3, atol=1e-5)

    def test_conv2d_stride2(self):
        rng = new_rng(1)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3, requires_grad=True)

        def loss():
            x.zero_grad(), w.zero_grad()
            return F.conv2d(x, w, None, stride=2, padding=1)

        check_grads(loss, [x, w], rtol=1e-3, atol=1e-5)

    def test_conv2d_output_shape(self):
        x = Tensor(np.zeros((2, 3, 32, 32)))
        w = Tensor(np.zeros((8, 3, 3, 3)))
        out = F.conv2d(x, w, None, stride=2, padding=1)
        assert out.shape == (2, 8, 16, 16)

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 4, 8, 8))), Tensor(np.zeros((2, 3, 3, 3))))

    def test_conv2d_matches_direct_computation(self):
        rng = new_rng(2)
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(1, 1, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w), None).numpy()
        # Direct sliding window.
        expected = np.zeros((1, 1, 3, 3))
        for i in range(3):
            for j in range(3):
                expected[0, 0, i, j] = np.sum(x[0, 0, i : i + 2, j : j + 2] * w[0, 0])
        np.testing.assert_allclose(out, expected)

    def test_maxpool_grads(self):
        rng = new_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)

        def loss():
            x.zero_grad()
            return F.maxpool2d(x, 2) * F.maxpool2d(x, 2)

        check_grads(loss, [x], rtol=1e-3)

    def test_maxpool_requires_divisible(self):
        with pytest.raises(ValueError):
            F.maxpool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_global_avgpool(self):
        rng = new_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)

        def loss():
            x.zero_grad()
            return F.global_avgpool2d(x)

        check_grads(loss, [x])


class TestNorms:
    def test_batchnorm_train_grads(self):
        rng = new_rng(0)
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(4, 3, 2, 2)) * 2 + 1, requires_grad=True)

        def loss():
            x.zero_grad(), bn.zero_grad()
            return bn(x) * bn(x)

        # Note bn called twice updates running stats twice; stats don't
        # affect train-mode output so gradcheck is still valid.
        check_grads(loss, [x, bn.gamma, bn.beta], rtol=1e-3, atol=1e-5)

    def test_batchnorm_normalizes(self):
        rng = new_rng(1)
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(16, 3, 4, 4)) * 5 + 3)
        out = bn(x).numpy()
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-10
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_batchnorm_eval_uses_running_stats(self):
        rng = new_rng(2)
        bn = BatchNorm2d(2, momentum=0.5)
        for _ in range(20):
            bn(Tensor(rng.normal(size=(32, 2, 4, 4)) * 3 + 7))
        bn.eval()
        out = bn(Tensor(rng.normal(size=(8, 2, 4, 4)) * 3 + 7)).numpy()
        # Roughly standardized under the learned running stats.
        assert np.abs(out.mean()) < 0.5

    def test_layernorm_grads(self):
        rng = new_rng(3)
        ln = LayerNorm(6)
        x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)

        def loss():
            x.zero_grad(), ln.zero_grad()
            return ln(x) * ln(x)

        check_grads(loss, [x, ln.gamma, ln.beta], rtol=1e-3, atol=1e-5)


class TestSoftmaxLosses:
    def test_softmax_rows_sum_to_one(self):
        rng = new_rng(0)
        out = F.softmax(Tensor(rng.normal(size=(4, 7)))).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    def test_softmax_grads(self):
        rng = new_rng(1)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))

        def loss():
            x.zero_grad()
            return F.softmax(x) * Tensor(w)

        check_grads(loss, [x], rtol=1e-4)

    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 1.0, 0.1]]))
        labels = np.array([0])
        loss = F.cross_entropy(logits, labels)
        p = np.exp([2.0, 1.0, 0.1])
        p = p / p.sum()
        assert loss.item() == pytest.approx(-np.log(p[0]))

    def test_cross_entropy_grads(self):
        rng = new_rng(2)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        labels = np.array([0, 2, 5, 1])

        def loss():
            x.zero_grad()
            return F.cross_entropy(x, labels)

        check_grads(loss, [x], rtol=1e-4)

    def test_cross_entropy_stable_large_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0]]))
        loss = F.cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss.item())


class TestEmbeddingAttention:
    def test_embedding_grads_accumulate_repeats(self):
        emb = Embedding(10, 4, seed=0)
        idx = np.array([[1, 1, 3]])
        out = emb(idx)
        out.backward(np.ones_like(out.numpy()))
        assert emb.table.grad is not None
        np.testing.assert_allclose(emb.table.grad[1], 2.0)  # used twice
        np.testing.assert_allclose(emb.table.grad[3], 1.0)
        np.testing.assert_allclose(emb.table.grad[0], 0.0)

    def test_attention_shapes_and_grads_flow(self):
        rng = new_rng(0)
        attn = MultiHeadAttention(8, 2, seed=0)
        x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
        out = attn(x)
        assert out.shape == (2, 5, 8)
        out.backward()
        assert x.grad is not None
        for p in attn.parameters():
            assert p.grad is not None

    def test_attention_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)


class TestTape:
    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * Tensor(2.0)
        assert not y.requires_grad

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * Tensor(2.0)).backward()
        (x * Tensor(2.0)).backward()
        np.testing.assert_allclose(x.grad, 4.0)

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x  # used twice through different paths
        z = y + y
        z.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + Tensor(0.0)
        y.backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_backward_shape_mismatch_raises(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * Tensor(1.0)).backward(np.ones((3, 2)))

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = (x * Tensor(3.0)).detach()
        z = y * Tensor(2.0)
        assert not z.requires_grad


class TestPrecisionModules:
    def test_fp32_is_exact(self):
        rng = new_rng(0)
        lin = Linear(8, 4, seed=1)
        x = Tensor(rng.normal(size=(3, 8)))
        ref = F.linear(Tensor(x.data), lin.weight, lin.bias).numpy()
        np.testing.assert_array_equal(lin(x).numpy(), ref)

    def test_fp16_injects_small_noise(self):
        rng = new_rng(1)
        lin = Linear(32, 16, seed=1)
        x = Tensor(rng.normal(size=(4, 32)))
        ref = lin(x).numpy()
        lin.precision = PrecisionConfig(forward=Precision.FP16, seed=0)
        out = lin(x).numpy()
        rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
        assert 0 < rel < 0.01

    def test_int8_noise_larger_than_fp16(self):
        rng = new_rng(2)
        x = Tensor(rng.normal(size=(8, 64)))
        lin = Linear(64, 32, seed=3)
        ref = lin(x).numpy()
        lin.precision = PrecisionConfig(forward=Precision.FP16, seed=0)
        err16 = np.mean((lin(x).numpy() - ref) ** 2)
        lin.precision = PrecisionConfig(forward=Precision.INT8, seed=0)
        err8 = np.mean((lin(x).numpy() - ref) ** 2)
        assert err8 > err16 > 0

    def test_int8_backward_is_fp16(self):
        cfg = PrecisionConfig(forward=Precision.INT8)
        assert cfg.effective_backward is Precision.FP16

    def test_fp16_backward_follows_forward(self):
        cfg = PrecisionConfig(forward=Precision.FP16)
        assert cfg.effective_backward is Precision.FP16

    def test_explicit_backward_override(self):
        cfg = PrecisionConfig(forward=Precision.INT8, backward=Precision.FP32)
        assert cfg.effective_backward is Precision.FP32

    def test_quantized_linear_still_trains(self):
        # Gradients through fake-quant are straight-through: same shapes,
        # finite values, approximately the FP32 gradient.
        rng = new_rng(4)
        lin = Linear(16, 8, seed=5)
        x = Tensor(rng.normal(size=(4, 16)), requires_grad=True)
        lin.precision = PrecisionConfig(forward=Precision.INT8, seed=0)
        loss = F.cross_entropy(lin(x), np.array([0, 1, 2, 3]))
        loss.backward()
        assert lin.weight.grad is not None
        assert np.all(np.isfinite(lin.weight.grad))

    def test_install_plan(self):
        model = Sequential(Linear(8, 8, seed=0), ReLU(), Linear(8, 4, seed=1))
        adjustable = QuantizedOp.adjustable_modules(model)
        assert len(adjustable) == 2
        plan = {list(adjustable)[0]: Precision.INT8}
        QuantizedOp.install_plan(model, plan)
        mods = list(adjustable.values())
        assert {m.precision.forward for m in mods} == {Precision.INT8, Precision.FP32}

    def test_install_plan_rejects_unknown_path(self):
        model = Sequential(Linear(4, 4))
        with pytest.raises(KeyError):
            QuantizedOp.install_plan(model, {"nonexistent": Precision.FP16})

    def test_uniform_plan_covers_all(self):
        model = Sequential(
            Conv2d(3, 4, 3, padding=1, seed=0), ReLU(), Linear(4 * 4 * 4, 2)
        )
        plan = QuantizedOp.uniform_plan(model, Precision.FP16)
        assert len(plan) == 2
        assert all(p is Precision.FP16 for p in plan.values())


class TestModuleSystem:
    def test_state_roundtrip(self):
        m1 = Sequential(Linear(4, 4, seed=0), Linear(4, 2, seed=1))
        m2 = Sequential(Linear(4, 4, seed=7), Linear(4, 2, seed=8))
        m2.load_state_arrays(m1.state_arrays())
        x = Tensor(new_rng(0).normal(size=(2, 4)))
        np.testing.assert_array_equal(m1(x).numpy(), m2(x).numpy())

    def test_load_state_shape_mismatch(self):
        m1 = Sequential(Linear(4, 4))
        m2 = Sequential(Linear(4, 2))
        with pytest.raises((ValueError, KeyError)):
            m2.load_state_arrays(m1.state_arrays())

    def test_num_parameters(self):
        lin = Linear(10, 5)
        assert lin.num_parameters() == 10 * 5 + 5

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())
