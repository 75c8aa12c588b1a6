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
from repro.graph.ops import OpKind
from repro.models.catalog import GraphBuilder
from repro.tensor import functional as F
from repro.tensor.modules import (
    MLP_RATIO,
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
    logical_size = model.image_size  # drives pool placement (matches model)
    size = model.image_size * spatial_scale  # drives shapes/FLOPs
    b = GraphBuilder((batch, model.in_channels, size, size))
    prev = "input"
    layer_idx = 0
    for i, w in enumerate(model.widths):
        blk = f"convblock{i}"
        prev = b.conv(f"features.{layer_idx}", prev, w * width_scale, 3, block=blk)
        layer_idx += 1
        if model.batch_norm:
            prev = b.bn(f"features.bn{i}", prev, block=blk)
            layer_idx += 1
        prev = b.relu(f"features.relu{i}", prev, block=blk)
        layer_idx += 1
        if i % 2 == 1 and logical_size >= 8:
            logical_size //= 2
            prev = b.maxpool(f"features.pool{i}", prev, 2)
            layer_idx += 1
    prev = b.avgpool("features.gap", prev)
    prev = b.linear("classifier", prev, model.classifier.out_features, block="head")
    return b.finish(prev)


def _resnet_graph(
    model: MiniResNet, batch: int, width_scale: int = 1, spatial_scale: int = 1
) -> PrecisionDAG:
    size = 16 * spatial_scale
    b = GraphBuilder((batch, model.stem.in_channels, size, size))
    stem = b.conv("stem", "input", model.stem.out_channels * width_scale, 3,
                  block="stem")
    # The mini mirror prices BN at one FLOP per element (the catalog: two).
    stem = b.elementwise("stem_bn", OpKind.BATCHNORM, [stem], 1, "stem")
    prev = b.relu("stem_relu", stem, block="stem")
    for blk in ("block0", "block1", "block2"):
        block = getattr(model, blk)
        out_c = block.conv1.out_channels * width_scale
        identity = prev
        x = b.conv(f"{blk}.conv1", prev, out_c, 3, block=blk)
        x = b.elementwise(f"{blk}.bn1", OpKind.BATCHNORM, [x], 1, blk)
        x = b.relu(f"{blk}.relu1", x, block=blk)
        x = b.conv(f"{blk}.conv2", x, out_c, 3, block=blk)
        x = b.elementwise(f"{blk}.bn2", OpKind.BATCHNORM, [x], 1, blk)
        if block.proj is not None:
            identity = b.conv(f"{blk}.proj", prev, out_c, 1, block=blk)
        x = b.elementwise(f"{blk}.add", OpKind.ADD, [x, identity], 1, blk)
        prev = b.relu(f"{blk}.relu2", x, block=blk)
    prev = b.avgpool("pool", prev)
    prev = b.linear("fc", prev, model.fc.out_features, block="head")
    return b.finish(prev)


def _transformer_mini_graph(
    model: MiniTransformer, batch: int, width_scale: int = 1, spatial_scale: int = 1
) -> PrecisionDAG:
    dim = model.head.in_features * width_scale
    seq = 16 * spatial_scale
    heads = model.blocks.layers[0].attn.num_heads
    b = GraphBuilder((batch, seq))
    # The mini mirror prices the embedding and the mean-pool at zero FLOPs
    # and LayerNorm/softmax/GELU at one per element (the catalog: 4/4/8).
    prev = b.add("embed", OpKind.EMBEDDING, ["input"], (batch, seq, dim),
                 weight_shape=(model.embed.table.shape[0], dim))
    for i in range(len(model.blocks.layers)):
        blk = f"blocks.{i}"
        ln1 = b.elementwise(f"{blk}.ln1", OpKind.LAYERNORM, [prev], 1, blk)
        q = b.linear(f"{blk}.attn.q_proj", ln1, dim, block=blk)
        k = b.linear(f"{blk}.attn.k_proj", ln1, dim, block=blk)
        v = b.linear(f"{blk}.attn.v_proj", ln1, dim, block=blk)
        ctx = b.attention(f"{blk}.attn", q, k, v, heads, 1, blk)
        out = b.linear(f"{blk}.attn.out_proj", ctx, dim, block=blk)
        res1 = b.elementwise(f"{blk}.add1", OpKind.ADD, [out, prev], 1, blk)
        ln2 = b.elementwise(f"{blk}.ln2", OpKind.LAYERNORM, [res1], 1, blk)
        fc1 = b.linear(f"{blk}.fc1", ln2, dim * MLP_RATIO, block=blk)
        act = b.elementwise(f"{blk}.gelu", OpKind.GELU, [fc1], 1, blk)
        fc2 = b.linear(f"{blk}.fc2", act, dim, block=blk)
        prev = b.elementwise(f"{blk}.add2", OpKind.ADD, [fc2, res1], 1, blk)
    prev = b.add("meanpool", OpKind.AVGPOOL, [prev], (batch, dim))
    prev = b.linear("head", prev, model.head.out_features, block="head")
    return b.finish(prev)
