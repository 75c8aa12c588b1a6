"""Differentiable operators.

Every function takes/returns :class:`~repro.tensor.tensor.Tensor` and records
a backward closure on the tape.  Implementations are vectorized numpy — conv
uses an ``as_strided`` im2col so the inner product runs in BLAS, pooling uses
window-view reductions, softmax/cross-entropy are fused and numerically
stable.  These are the "pure op execution" paths whose latency the profiler
models; their *numerics* are exact FP64 so that all low-precision effects come
from the explicit quantization ops at the end of this module.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.common.dtypes import Precision
from repro.quant.fixed_point import FixedPointQuantizer, Granularity
from repro.quant.floating_point import simulate_cast
from repro.tensor.tensor import Tensor, unbroadcast

# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return Tensor.from_op(
        out,
        (a, b),
        lambda g: (unbroadcast(g, a.shape), unbroadcast(g, b.shape)),
        "add",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return Tensor.from_op(
        out,
        (a, b),
        lambda g: (
            unbroadcast(g * b.data, a.shape),
            unbroadcast(g * a.data, b.shape),
        ),
        "mul",
    )


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)
    return Tensor.from_op(
        out, (a,), lambda g: (g.reshape(a.shape),), "reshape"
    )


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    out = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    return Tensor.from_op(
        out, (a,), lambda g: (np.transpose(g, inv),), "transpose"
    )


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    elif isinstance(axis, int):
        count = a.shape[axis]
    else:
        count = int(np.prod([a.shape[ax] for ax in axis]))
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        g2 = g
        if not keepdims:
            g2 = np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / count, a.shape).copy(),)

    return Tensor.from_op(np.asarray(out), (a,), backward, "mean")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with broadcasting over leading axes."""
    out = a.data @ b.data

    def backward(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return unbroadcast(ga, a.shape), unbroadcast(gb, b.shape)

    return Tensor.from_op(out, (a, b), backward, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``y = x @ W.T + b`` with ``W`` of shape (out_features, in_features).

    ``x`` may have any number of leading axes (e.g. (batch, seq, d)).
    """
    out = x.data @ weight.data.T
    if bias is not None:
        out = out + bias.data

    def backward(g):
        gx = g @ weight.data
        g2d = g.reshape(-1, g.shape[-1])
        x2d = x.data.reshape(-1, x.shape[-1])
        gw = g2d.T @ x2d
        gb = g2d.sum(axis=0) if bias is not None else None
        if bias is not None:
            return gx, gw, gb
        return gx, gw

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out, parents, backward, "linear")


# ---------------------------------------------------------------------------
# convolution (NCHW, im2col)
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """View ``x`` (N,C,H,W) as columns (N, out_h, out_w, C, kh, kw).

    Zero-copies via ``as_strided`` after padding; the caller must not write
    through the returned view.
    """
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    cols = as_strided(
        x,
        shape=(n, out_h, out_w, c, kh, kw),
        strides=(sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False,
    )
    return cols, out_h, out_w


def _col2im(
    gcols: np.ndarray,
    x_shape: tuple[int, ...],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add columns back to image."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out = np.zeros((n, c, hp, wp), dtype=gcols.dtype)
    out_h, out_w = gcols.shape[1], gcols.shape[2]
    # Loop over the (small) kernel footprint, vectorized over N/outH/outW/C:
    # kh*kw iterations instead of out_h*out_w — per the HPC guide, loops over
    # tiny dimensions are fine when each iteration is a large strided add.
    for i in range(kh):
        hi = i + stride * out_h
        for j in range(kw):
            wj = j + stride * out_w
            out[:, :, i:hi:stride, j:wj:stride] += np.transpose(
                gcols[:, :, :, :, i, j], (0, 3, 1, 2)
            )
    if pad:
        out = out[:, :, pad:-pad, pad:-pad]
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution, NCHW layout, weight (out_c, in_c, kh, kw)."""
    out_c, in_c, kh, kw = weight.shape
    if x.shape[1] != in_c:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weight expects {in_c}"
        )
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    n = x.shape[0]
    cols2d = cols.reshape(n * out_h * out_w, in_c * kh * kw)
    w2d = weight.data.reshape(out_c, in_c * kh * kw)
    out = (cols2d @ w2d.T).reshape(n, out_h, out_w, out_c)
    out = np.transpose(out, (0, 3, 1, 2))
    if bias is not None:
        out = out + bias.data.reshape(1, out_c, 1, 1)

    def backward(g):
        g_ = np.transpose(g, (0, 2, 3, 1)).reshape(n * out_h * out_w, out_c)
        gw = (g_.T @ cols2d).reshape(weight.shape)
        gcols = (g_ @ w2d).reshape(n, out_h, out_w, in_c, kh, kw)
        gx = _col2im(gcols, x.shape, kh, kw, stride, padding)
        if bias is not None:
            gb = g_.sum(axis=0)
            return gx, gw, gb
        return gx, gw

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out, parents, backward, "conv2d")


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def maxpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Max pooling (NCHW) over non-overlapping windows (stride = kernel);
    requires H, W divisible by the window for the fast reshaped path (all
    catalog models satisfy this)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"maxpool2d: {h}x{w} not divisible by {kernel}")
    oh, ow = h // kernel, w // kernel
    win = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out = win.max(axis=(3, 5))

    def backward(g):
        mask = win == out[:, :, :, None, :, None]
        # Ties split the gradient evenly — keeps the op's adjoint exact.
        counts = mask.sum(axis=(3, 5), keepdims=True)
        gx = mask * (g[:, :, :, None, :, None] / counts)
        return (gx.reshape(x.shape),)

    return Tensor.from_op(out, (x,), backward, "maxpool2d")


def global_avgpool2d(x: Tensor) -> Tensor:
    """Mean over spatial dims: (N,C,H,W) -> (N,C)."""
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def backward(g):
        gx = np.broadcast_to(
            g[:, :, None, None] / (h * w), x.shape
        ).copy()
        return (gx,)

    return Tensor.from_op(out, (x,), backward, "global_avgpool2d")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    return Tensor.from_op(out, (x,), lambda g: (g * (x.data > 0),), "relu")


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU (the BERT formulation)."""
    c = np.sqrt(2.0 / np.pi)
    inner = c * (x.data + 0.044715 * x.data**3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)

    def backward(g):
        dt = (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x.data**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x.data * dt),)

    return Tensor.from_op(out, (x,), backward, "gelu")


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    batch_mean: np.ndarray,
    batch_var: np.ndarray,
    eps: float,
) -> Tensor:
    """Batch norm over (N,H,W) per channel with the supplied statistics.

    The module computes/updates running statistics; this op performs the
    normalization and differentiates through mean/var when they came from the
    batch (training).  ``batch_mean``/``batch_var`` must be the statistics of
    ``x`` itself for training mode — the backward assumes that.
    """
    n, c, h, w = x.shape
    m = n * h * w
    mu = batch_mean.reshape(1, c, 1, 1)
    var = batch_var.reshape(1, c, 1, 1)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)

    def backward(g):
        gamma_ = gamma.data.reshape(1, c, 1, 1)
        gxhat = g * gamma_
        # Standard BN backward through batch statistics.
        sum_gxhat = gxhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_gxhat_xhat = (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
        gx = (inv_std / m) * (m * gxhat - sum_gxhat - xhat * sum_gxhat_xhat)
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        return gx, ggamma, gbeta

    return Tensor.from_op(out, (x, gamma, beta), backward, "batchnorm2d")


def batchnorm2d_eval(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
) -> Tensor:
    """BN with frozen statistics (inference): affine transform only."""
    c = x.shape[1]
    inv_std = 1.0 / np.sqrt(running_var.reshape(1, c, 1, 1) + eps)
    mu = running_mean.reshape(1, c, 1, 1)
    scale = gamma.data.reshape(1, c, 1, 1) * inv_std
    out = (x.data - mu) * scale + beta.data.reshape(1, c, 1, 1)

    def backward(g):
        gx = g * scale
        xhat = (x.data - mu) * inv_std
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        gbeta = g.sum(axis=(0, 2, 3))
        return gx, ggamma, gbeta

    return Tensor.from_op(out, (x, gamma, beta), backward, "batchnorm2d_eval")


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis (transformer convention)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = gamma.data * xhat + beta.data
    d = x.shape[-1]

    def backward(g):
        gxhat = g * gamma.data
        sum_g = gxhat.sum(axis=-1, keepdims=True)
        sum_gx = (gxhat * xhat).sum(axis=-1, keepdims=True)
        gx = (inv_std / d) * (d * gxhat - sum_g - xhat * sum_gx)
        reduce_axes = tuple(range(g.ndim - 1))
        ggamma = (g * xhat).sum(axis=reduce_axes)
        gbeta = g.sum(axis=reduce_axes)
        return gx, ggamma, gbeta

    return Tensor.from_op(out, (x, gamma, beta), backward, "layernorm")


# ---------------------------------------------------------------------------
# attention / embedding
# ---------------------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor.from_op(out, (x,), backward, "softmax")


def embedding(indices: np.ndarray, table: Tensor) -> Tensor:
    """Lookup rows of ``table`` (V, D) by integer ``indices`` (…,)."""
    idx = np.asarray(indices)
    out = table.data[idx]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return Tensor.from_op(out, (table,), backward, "embedding")


# ---------------------------------------------------------------------------
# losses (precision-fixed per the paper: QSync never quantizes these)
# ---------------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy, fused and stable.

    Gradient of the input is ``(p - y) / N`` — the ``gamma = 1/N`` case of
    the paper's loss-gradient form ``grad = gamma (v - y)``.
    """
    labels = np.asarray(labels)
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsumexp
    loss = -logp[np.arange(n), labels].mean()
    probs = np.exp(logp)

    def backward(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return (g * grad / n,)

    return Tensor.from_op(np.asarray(loss), (logits,), backward, "cross_entropy")


# ---------------------------------------------------------------------------
# precision-injection ops (the LP-PyTorch kernel semantics)
# ---------------------------------------------------------------------------


def fake_quant_fixed(
    x: Tensor,
    bits: int,
    rng: np.random.Generator,
    granularity: Granularity = Granularity.LAYER,
    rounding: str = "stochastic",
) -> Tensor:
    """Fixed-point quantize-dequantize with a straight-through gradient.

    Models an INT-b kernel input: the forward value set is the INT-b grid;
    the backward treats the quantizer as identity (STE), matching how the
    paper's kernels backpropagate through quantized activations.
    """
    quantizer = FixedPointQuantizer(bits=bits, granularity=granularity, rounding=rounding)
    out = quantizer.fake_quantize(x.data, rng)
    return Tensor.from_op(out, (x,), lambda g: (g,), f"fake_quant_int{bits}")


def fake_quant_float(
    x: Tensor,
    precision: Precision,
    rng: np.random.Generator,
    rounding: str = "stochastic",
) -> Tensor:
    """Floating-point cast (FP16) with straight-through gradient."""
    if precision is Precision.FP32:
        return x
    out = simulate_cast(x.data, precision, rng, rounding=rounding)
    return Tensor.from_op(out, (x,), lambda g: (g,), f"fake_quant_{precision.value}")


def grad_quant(
    x: Tensor,
    precision: Precision,
    rng: np.random.Generator,
    rounding: str = "stochastic",
) -> Tensor:
    """Identity forward; quantizes the gradient flowing backward.

    This is how an operator's *backward* precision is modelled: the paper
    changes forward and backward precision together (Sec. IV), and for
    fixed-point kernels runs the backward in FP16 (footnote 2), so INT8 ops
    install an FP16 ``grad_quant`` while FP16 ops install an FP16 one too.
    """
    if precision is Precision.FP32:
        return x

    def backward(g):
        if precision.is_floating_point:
            return (simulate_cast(g, precision, rng, rounding=rounding),)
        quantizer = FixedPointQuantizer(bits=precision.bits, rounding=rounding)
        return (quantizer.fake_quantize(g, rng),)

    return Tensor.from_op(x.data, (x,), backward, f"grad_quant_{precision.value}")
