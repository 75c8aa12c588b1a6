"""A numpy tape-based autodiff engine with precision-aware operators.

This is the reproduction's stand-in for PyTorch: small, fully inspectable,
and — crucially — able to execute *hybrid mixed-precision* forward/backward
passes in which every operator carries its own precision (FP32/FP16/INT8 with
stochastic rounding), so quantization noise propagates into real training
trajectories exactly as the paper's LP-PyTorch kernels would inject it.

Layout:

* :mod:`repro.tensor.tensor` — the :class:`Tensor` tape and ``backward()``.
* :mod:`repro.tensor.functional` — differentiable ops (matmul, conv2d via
  im2col, batch/layer norm, pooling, softmax/CE, ...).
* :mod:`repro.tensor.modules` — stateful layers and containers.
* :mod:`repro.tensor.qmodules` — precision-aware wrappers implementing the
  paper's operator semantics (forward+backward precision change together).
"""

from repro.tensor import functional
from repro.tensor.modules import (
    GELU,
    BatchNorm2d,
    Conv2d,
    Embedding,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    Module,
    MultiHeadAttention,
    ReLU,
    Sequential,
)
from repro.tensor.qmodules import PrecisionConfig, QuantizedOp
from repro.tensor.tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "Embedding",
    "ReLU",
    "GELU",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "MultiHeadAttention",
    "PrecisionConfig",
    "QuantizedOp",
]
