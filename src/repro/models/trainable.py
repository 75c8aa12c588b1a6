"""Executable scaled-down counterparts of the benchmark models.

These run real hybrid mixed-precision training on :mod:`repro.tensor`.  Each
mini-model's precision-adjustable operators mirror the kind/order of its
full-size sibling, and :func:`mini_model_graph` emits a
:class:`PrecisionDAG` whose adjustable node names equal the model's module
paths — so a plan computed by the Allocator on the graph installs directly
onto the executable model.
"""

from __future__ import annotations

import numpy as np

from repro.graph.dag import PrecisionDAG
from repro.graph.ops import (
    OperatorSpec,
    OpKind,
    conv2d_flops,
    elementwise_flops,
    linear_flops,
)
from repro.tensor import functional as F
from repro.tensor.modules import (
    BatchNorm2d,
    Conv2d,
    Embedding,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    TransformerBlock,
)
from repro.tensor.tensor import Tensor


class MiniConvNet(Module):
    """VGG-style plain conv stack (with or without BN).

    Default: 5 convs over 16×16 inputs — the smallest net that still shows
    BN's batch-size sensitivity and depth-dependent quantization sensitivity.
    """

    def __init__(
        self,
        in_channels: int = 3,
        widths: tuple[int, ...] = (16, 16, 32, 32, 64),
        num_classes: int = 10,
        image_size: int = 16,
        batch_norm: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.batch_norm = batch_norm
        self.image_size = image_size
        self.in_channels = in_channels
        self.widths = widths
        layers: list[Module] = []
        c = in_channels
        size = image_size
        # Pool after every second conv while the map stays >= 4x4.
        for i, w in enumerate(widths):
            layers.append(Conv2d(c, w, 3, padding=1, bias=not batch_norm, seed=seed + i))
            if batch_norm:
                layers.append(BatchNorm2d(w))
            layers.append(ReLU())
            if i % 2 == 1 and size >= 8:
                layers.append(MaxPool2d(2))
                size //= 2
            c = w
        layers.append(GlobalAvgPool2d())
        self.features = Sequential(*layers)
        self.classifier = Linear(c, num_classes, seed=seed + 100)

    def forward(self, x: Tensor) -> Tensor:
        return self.classifier(self.features(x))


class _ResidualBlock(Module):
    def __init__(self, in_c: int, out_c: int, seed: int) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_c, out_c, 3, padding=1, bias=False, seed=seed)
        self.bn1 = BatchNorm2d(out_c)
        self.conv2 = Conv2d(out_c, out_c, 3, padding=1, bias=False, seed=seed + 1)
        self.bn2 = BatchNorm2d(out_c)
        self.proj: Conv2d | None = None
        if in_c != out_c:
            self.proj = Conv2d(in_c, out_c, 1, bias=False, seed=seed + 2)

    def forward(self, x: Tensor) -> Tensor:
        identity = x if self.proj is None else self.proj(x)
        out = F.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return F.relu(out + identity)


class MiniResNet(Module):
    """Three residual blocks over 16×16 inputs (ResNet50 analogue)."""

    def __init__(
        self,
        in_channels: int = 3,
        widths: tuple[int, ...] = (16, 32, 64),
        num_classes: int = 10,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.stem = Conv2d(in_channels, widths[0], 3, padding=1, bias=False, seed=seed)
        self.stem_bn = BatchNorm2d(widths[0])
        self.block0 = _ResidualBlock(widths[0], widths[0], seed=seed + 10)
        self.block1 = _ResidualBlock(widths[0], widths[1], seed=seed + 20)
        self.block2 = _ResidualBlock(widths[1], widths[2], seed=seed + 30)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(widths[2], num_classes, seed=seed + 40)

    def forward(self, x: Tensor) -> Tensor:
        x = F.relu(self.stem_bn(self.stem(x)))
        x = self.block0(x)
        x = self.block1(x)
        x = self.block2(x)
        return self.fc(self.pool(x))


class MiniTransformer(Module):
    """Tiny encoder for sequence classification (BERT/RoBERTa analogue)."""

    def __init__(
        self,
        vocab_size: int = 64,
        dim: int = 32,
        num_heads: int = 4,
        num_layers: int = 2,
        num_classes: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.embed = Embedding(vocab_size, dim, seed=seed)
        self.blocks = Sequential(
            *[TransformerBlock(dim, num_heads, seed=seed + 50 * i) for i in range(num_layers)]
        )
        self.head = Linear(dim, num_classes, seed=seed + 999)

    def forward(self, tokens: np.ndarray) -> Tensor:
        x = self.embed(tokens)
        x = self.blocks(x)
        pooled = x.mean(axis=1)  # mean-pool over sequence
        return self.head(pooled)


# ---------------------------------------------------------------------------
# factory + graph mirror
# ---------------------------------------------------------------------------

MINI_MODELS = {
    "mini_vgg": lambda seed=0: MiniConvNet(batch_norm=False, seed=seed),
    "mini_vggbn": lambda seed=0: MiniConvNet(batch_norm=True, seed=seed),
    "mini_resnet": lambda seed=0: MiniResNet(seed=seed),
    "mini_bert": lambda seed=0: MiniTransformer(num_classes=4, seed=seed),
    # 6-layer variant: Table III's "Half-BertLayer1,3,5" config needs depth.
    "mini_bert6": lambda seed=0: MiniTransformer(
        num_layers=6, num_classes=4, seed=seed
    ),
    "mini_roberta": lambda seed=0: MiniTransformer(
        vocab_size=96, num_layers=3, num_classes=4, seed=seed
    ),
}


def make_mini_model(name: str, seed: int = 0) -> Module:
    """Instantiate a mini model by registry name."""
    if name not in MINI_MODELS:
        raise KeyError(f"unknown mini model {name!r}; available: {sorted(MINI_MODELS)}")
    return MINI_MODELS[name](seed=seed)


def mini_model_graph(
    name: str,
    batch_size: int = 32,
    width_scale: int = 1,
    spatial_scale: int = 1,
) -> PrecisionDAG:
    """PrecisionDAG mirror of a mini model.

    Adjustable node names equal the executable model's module paths, so a
    plan computed on the graph installs directly via
    :meth:`QuantizedOp.install_plan`.

    ``width_scale``/``spatial_scale`` inflate channel/feature widths and
    spatial/sequence extents *of the graph only*: topology and names stay
    identical to the executable model, while FLOPs and memory reach
    production scale.  This is how the reproduction splits the paper's
    experiments across its two fidelity axes (CONTRIBUTING.md
    "Substitutions"): latency and
    memory decisions are made against realistic shapes; accuracy is measured
    on the laptop-scale executable twin, with the plan transferred by name.
    """
    model = make_mini_model(name)
    if isinstance(model, MiniConvNet):
        return _convnet_graph(model, batch_size, width_scale, spatial_scale)
    if isinstance(model, MiniResNet):
        return _resnet_graph(model, batch_size, width_scale, spatial_scale)
    if isinstance(model, MiniTransformer):
        return _transformer_mini_graph(model, batch_size, width_scale, spatial_scale)
    raise TypeError(f"no graph mirror for {type(model).__name__}")


def _convnet_graph(
    model: MiniConvNet, batch: int, width_scale: int = 1, spatial_scale: int = 1
) -> PrecisionDAG:
    dag = PrecisionDAG()
    logical_size = model.image_size  # drives pool placement (matches model)
    size = model.image_size * spatial_scale  # drives shapes/FLOPs
    c = model.in_channels
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (batch, c, size, size)))
    prev = "input"
    layer_idx = 0
    for i, w_base in enumerate(model.widths):
        w = w_base * width_scale
        blk = f"convblock{i}"
        name = f"features.{layer_idx}"
        dag.add_op(
            OperatorSpec(
                name, OpKind.CONV2D, (batch, w, size, size),
                weight_shape=(w, c, 3, 3),
                flops=conv2d_flops(batch, c, w, size, size, 3, 3), block=blk,
            ),
            inputs=[prev],
        )
        prev = name
        layer_idx += 1
        if model.batch_norm:
            bn_name = f"features.bn{i}"
            dag.add_op(
                OperatorSpec(
                    bn_name, OpKind.BATCHNORM, (batch, w, size, size),
                    flops=2 * elementwise_flops((batch, w, size, size)), block=blk,
                ),
                inputs=[prev],
            )
            prev = bn_name
            layer_idx += 1
        relu_name = f"features.relu{i}"
        dag.add_op(
            OperatorSpec(
                relu_name, OpKind.RELU, (batch, w, size, size),
                flops=elementwise_flops((batch, w, size, size)), block=blk,
            ),
            inputs=[prev],
        )
        prev = relu_name
        layer_idx += 1
        if i % 2 == 1 and logical_size >= 8:
            pool_name = f"features.pool{i}"
            logical_size //= 2
            size //= 2
            dag.add_op(
                OperatorSpec(
                    pool_name, OpKind.MAXPOOL, (batch, w, size, size),
                    flops=elementwise_flops((batch, w, size * 2, size * 2)),
                ),
                inputs=[prev],
            )
            prev = pool_name
            layer_idx += 1
        c = w
    dag.add_op(
        OperatorSpec("features.gap", OpKind.AVGPOOL, (batch, c),
                     flops=elementwise_flops((batch, c, size, size))),
        inputs=[prev],
    )
    dag.add_op(
        OperatorSpec(
            "classifier", OpKind.LINEAR, (batch, 10),
            weight_shape=(10, c), flops=linear_flops(batch, c, 10), block="head",
        ),
        inputs=["features.gap"],
    )
    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["classifier"])
    dag.validate()
    return dag


def _resnet_graph(
    model: MiniResNet, batch: int, width_scale: int = 1, spatial_scale: int = 1
) -> PrecisionDAG:
    dag = PrecisionDAG()
    size = 16 * spatial_scale
    w0 = model.stem.out_channels * width_scale
    w1 = model.block1.conv1.out_channels * width_scale
    w2 = model.block2.conv1.out_channels * width_scale
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (batch, model.stem.in_channels, size, size)))

    def conv(name, src, in_c, out_c, k, blk):
        dag.add_op(
            OperatorSpec(
                name, OpKind.CONV2D, (batch, out_c, size, size),
                weight_shape=(out_c, in_c, k, k),
                flops=conv2d_flops(batch, in_c, out_c, size, size, k, k), block=blk,
            ),
            inputs=[src],
        )
        return name

    def simple(name, kind, src, c, blk=None, extra_inputs=()):
        dag.add_op(
            OperatorSpec(
                name, kind, (batch, c, size, size),
                flops=elementwise_flops((batch, c, size, size)), block=blk,
            ),
            inputs=[src, *extra_inputs],
        )
        return name

    prev = conv("stem", "input", model.stem.in_channels, w0, 3, "stem")
    prev = simple("stem_bn", OpKind.BATCHNORM, prev, w0, "stem")
    prev = simple("stem_relu", OpKind.RELU, prev, w0, "stem")

    blocks = [("block0", w0, w0), ("block1", w0, w1), ("block2", w1, w2)]
    for blk, in_c, out_c in blocks:
        identity = prev
        x = conv(f"{blk}.conv1", prev, in_c, out_c, 3, blk)
        x = simple(f"{blk}.bn1", OpKind.BATCHNORM, x, out_c, blk)
        x = simple(f"{blk}.relu1", OpKind.RELU, x, out_c, blk)
        x = conv(f"{blk}.conv2", x, out_c, out_c, 3, blk)
        x = simple(f"{blk}.bn2", OpKind.BATCHNORM, x, out_c, blk)
        if in_c != out_c:
            identity = conv(f"{blk}.proj", prev, in_c, out_c, 1, blk)
        x = simple(f"{blk}.add", OpKind.ADD, x, out_c, blk, extra_inputs=(identity,))
        prev = simple(f"{blk}.relu2", OpKind.RELU, x, out_c, blk)

    dag.add_op(
        OperatorSpec("pool", OpKind.AVGPOOL, (batch, w2),
                     flops=elementwise_flops((batch, w2, size, size))),
        inputs=[prev],
    )
    dag.add_op(
        OperatorSpec("fc", OpKind.LINEAR, (batch, 10), weight_shape=(10, w2),
                     flops=linear_flops(batch, w2, 10), block="head"),
        inputs=["pool"],
    )
    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["fc"])
    dag.validate()
    return dag


def _transformer_mini_graph(
    model: MiniTransformer, batch: int, width_scale: int = 1, spatial_scale: int = 1
) -> PrecisionDAG:
    dim = model.head.in_features * width_scale
    seq = 16 * spatial_scale
    heads = model.blocks.layers[0].attn.num_heads
    head_dim = dim // heads
    vocab = model.embed.table.shape[0]
    dag = PrecisionDAG()
    dag.add_op(OperatorSpec("input", OpKind.INPUT, (batch, seq)))
    dag.add_op(
        OperatorSpec("embed", OpKind.EMBEDDING, (batch, seq, dim),
                     weight_shape=(vocab, dim)),
        inputs=["input"],
    )
    prev = "embed"
    tokens = batch * seq

    def lin(name, src, out_f, blk, in_f=dim):
        dag.add_op(
            OperatorSpec(
                name, OpKind.LINEAR, (batch, seq, out_f),
                weight_shape=(out_f, in_f),
                flops=linear_flops(tokens, in_f, out_f), block=blk,
            ),
            inputs=[src],
        )
        return name

    def simple(name, kind, src, shape, blk, extra_inputs=(), flops=None):
        dag.add_op(
            OperatorSpec(
                name, kind, shape,
                flops=flops if flops is not None else elementwise_flops(shape),
                block=blk,
            ),
            inputs=[src, *extra_inputs],
        )
        return name

    shape3 = (batch, seq, dim)
    for i in range(len(model.blocks.layers)):
        blk = f"blocks.{i}"
        ln1 = simple(f"{blk}.ln1", OpKind.LAYERNORM, prev, shape3, blk)
        q = lin(f"{blk}.attn.q_proj", ln1, dim, blk)
        k = lin(f"{blk}.attn.k_proj", ln1, dim, blk)
        v = lin(f"{blk}.attn.v_proj", ln1, dim, blk)
        scores = simple(
            f"{blk}.attn.scores", OpKind.MATMUL, q, (batch, heads, seq, seq), blk,
            extra_inputs=(k,), flops=2.0 * batch * heads * seq * seq * head_dim,
        )
        probs = simple(f"{blk}.attn.softmax", OpKind.SOFTMAX, scores,
                       (batch, heads, seq, seq), blk)
        ctx = simple(
            f"{blk}.attn.context", OpKind.MATMUL, probs, shape3, blk,
            extra_inputs=(v,), flops=2.0 * batch * heads * seq * seq * head_dim,
        )
        out = lin(f"{blk}.attn.out_proj", ctx, dim, blk)
        res1 = simple(f"{blk}.add1", OpKind.ADD, out, shape3, blk, extra_inputs=(prev,))
        ln2 = simple(f"{blk}.ln2", OpKind.LAYERNORM, res1, shape3, blk)
        fc1 = lin(f"{blk}.fc1", ln2, dim * 4, blk)
        act = simple(f"{blk}.gelu", OpKind.GELU, fc1, (batch, seq, dim * 4), blk)
        fc2 = lin(f"{blk}.fc2", act, dim, blk, in_f=dim * 4)
        prev = simple(f"{blk}.add2", OpKind.ADD, fc2, shape3, blk, extra_inputs=(res1,))

    dag.add_op(
        OperatorSpec("meanpool", OpKind.AVGPOOL, (batch, dim)),
        inputs=[prev],
    )
    n_classes = model.head.out_features
    dag.add_op(
        OperatorSpec("head", OpKind.LINEAR, (batch, n_classes),
                     weight_shape=(n_classes, dim),
                     flops=linear_flops(batch, dim, n_classes), block="head"),
        inputs=["meanpool"],
    )
    dag.add_op(OperatorSpec("loss", OpKind.LOSS, (1,)), inputs=["head"])
    dag.validate()
    return dag
