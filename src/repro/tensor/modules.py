"""Stateful layers and containers.

The module system mirrors PyTorch's shape conventions so the catalog models
(Sec. VII benchmarks) translate directly.  Every layer with weights supports a
per-layer :class:`~repro.tensor.qmodules.PrecisionConfig` through the
``precision`` attribute — FP32 by default; the hybrid DDP trainer installs
device-specific plans by assigning it.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from repro.common.rng import new_rng
from repro.tensor import functional as F
from repro.tensor.qmodules import PrecisionConfig, apply_input_precision
from repro.tensor.tensor import Tensor


class Module:
    """Base class: parameter registry, train/eval mode, precision hook."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}
        self.training: bool = True
        #: Per-operator precision assignment (the ``b_io`` of problem (1)).
        self.precision: PrecisionConfig = PrecisionConfig()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        self._parameters[name] = tensor
        return tensor

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        super().__setattr__(name, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        yield from self._parameters.values()
        for child in self._modules.values():
            yield from child.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for cname, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{cname}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for cname, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{cname}.")

    # ------------------------------------------------------------------
    # mode / grads
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return int(np.sum([p.size for p in self.parameters()]))

    # ------------------------------------------------------------------
    # state exchange (the DDP trainer broadcasts/averages through these)
    # ------------------------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Name -> parameter array, for checkpoint/broadcast."""
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state missing parameters: {sorted(missing)[:5]}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)


# ---------------------------------------------------------------------------
# weighted layers (precision-adjustable operators, O_adj)
# ---------------------------------------------------------------------------


class Linear(Module):
    """Fully connected layer; a precision-adjustable operator."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: int = 0):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(seed)
        bound = math.sqrt(6.0 / (in_features + out_features))
        self.weight = self.register_parameter(
            "weight", Tensor(rng.uniform(-bound, bound, (out_features, in_features)))
        )
        self.bias: Optional[Tensor] = None
        if bias:
            self.bias = self.register_parameter("bias", Tensor(np.zeros(out_features)))

    def forward(self, x: Tensor) -> Tensor:
        x_eff, w_eff = apply_input_precision(x, self.weight, self.precision)
        return F.linear(x_eff, w_eff, self.bias)


class Conv2d(Module):
    """2-D convolution; a precision-adjustable operator."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: int = 0,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = new_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        bound = math.sqrt(2.0 / fan_in)  # He init for ReLU nets
        self.weight = self.register_parameter(
            "weight",
            Tensor(rng.normal(0, bound, (out_channels, in_channels, kernel_size, kernel_size))),
        )
        self.bias: Optional[Tensor] = None
        if bias:
            self.bias = self.register_parameter("bias", Tensor(np.zeros(out_channels)))

    def forward(self, x: Tensor) -> Tensor:
        x_eff, w_eff = apply_input_precision(x, self.weight, self.precision)
        return F.conv2d(x_eff, w_eff, self.bias, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalization with running statistics.

    This is the operator that makes Dynamic Batch Sizing degrade from-scratch
    accuracy (Sec. II-A): its statistics (and their running averages) depend
    on the *local* batch composition, so heterogeneous local batch sizes
    across workers change the training semantics.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter("gamma", Tensor(np.ones(num_features)))
        self.beta = self.register_parameter("beta", Tensor(np.zeros(num_features)))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            batch_mean = x.data.mean(axis=(0, 2, 3))
            batch_var = x.data.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * batch_var
            )
            return F.batchnorm2d(x, self.gamma, self.beta, batch_mean, batch_var, self.eps)
        return F.batchnorm2d_eval(
            x, self.gamma, self.beta, self.running_mean, self.running_var, self.eps
        )


class LayerNorm(Module):
    """Layer normalization (batch-size independent — why fine-tuning
    transformers tolerates DBS, Sec. VII-C)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = self.register_parameter("gamma", Tensor(np.ones(dim)))
        self.beta = self.register_parameter("beta", Tensor(np.zeros(dim)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layernorm(x, self.gamma, self.beta, self.eps)


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, vocab_size: int, dim: int, seed: int = 0):
        super().__init__()
        rng = new_rng(seed)
        self.table = self.register_parameter(
            "table", Tensor(rng.normal(0, 0.02, (vocab_size, dim)))
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(indices, self.table)


# ---------------------------------------------------------------------------
# stateless layers (precision-dependent operators, O_dep)
# ---------------------------------------------------------------------------


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.maxpool2d(x, self.kernel_size)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avgpool2d(x)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


class MultiHeadAttention(Module):
    """Multi-head self-attention.

    The four projections (Q, K, V, output) are independent precision-
    adjustable Linear operators, matching the paper's observation that a BERT
    attention block exposes a small number of adjustable ops (Sec. V).  The
    pure ``matmul`` ops between Q/K/V are binary-input and never quantized
    (Proposition 1's scope), as in QSync.
    """

    def __init__(self, dim: int, num_heads: int, seed: int = 0):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, seed=seed)
        self.k_proj = Linear(dim, dim, seed=seed + 1)
        self.v_proj = Linear(dim, dim, seed=seed + 2)
        self.out_proj = Linear(dim, dim, seed=seed + 3)

    def forward(self, x: Tensor) -> Tensor:
        b, s, d = x.shape
        h, hd = self.num_heads, self.head_dim

        def split_heads(t: Tensor) -> Tensor:
            return F.transpose(F.reshape(t, (b, s, h, hd)), (0, 2, 1, 3))

        q = split_heads(self.q_proj(x))
        k = split_heads(self.k_proj(x))
        v = split_heads(self.v_proj(x))

        scores = F.matmul(q, F.transpose(k, (0, 1, 3, 2)))
        scores = scores * Tensor(1.0 / math.sqrt(hd))
        attn = F.softmax(scores, axis=-1)
        ctx = F.matmul(attn, v)
        ctx = F.reshape(F.transpose(ctx, (0, 2, 1, 3)), (b, s, d))
        return self.out_proj(ctx)


# Hidden width of a transformer block's MLP, in multiples of the model
# width; the graph mirror in ``repro.models.trainable`` reads it too.
MLP_RATIO = 4


class TransformerBlock(Module):
    """Pre-LN transformer encoder block (attention + MLP, residuals)."""

    def __init__(self, dim: int, num_heads: int, seed: int = 0):
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, seed=seed)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, dim * MLP_RATIO, seed=seed + 10)
        self.act = GELU()
        self.fc2 = Linear(dim * MLP_RATIO, dim, seed=seed + 11)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        x = x + self.fc2(self.act(self.fc1(self.ln2(x))))
        return x
