"""Full-size model graphs with the paper's benchmark shapes.

Every builder returns a validated :class:`PrecisionDAG` whose operator FLOPs,
weight shapes and activation shapes match the reference architectures at the
paper's training configurations (ImageNet 224×224 for conv nets; SQuAD-style
seq 384 for BERT, SWAG-style seq 128 for RoBERTa).  The numbers drive the
Predictor's latency/memory estimates; the DAG structure (residual adds,
attention fan-out) drives the Cost Mapper's cascade logic.

Sanity anchors (checked in tests): ResNet50 has 52 conv precision-adjustable
operators and BERT-base has 73 linear ones — the counts the paper quotes when
sizing the search space (Sec. II-B).
"""

from __future__ import annotations

from typing import Callable

from repro.graph.dag import PrecisionDAG
from repro.graph.ops import (
    OperatorSpec,
    OpKind,
    conv2d_flops,
    elementwise_flops,
    linear_flops,
)


class GraphBuilder:
    """Incremental DAG construction with shape bookkeeping.

    The one way a model graph is spelled: the catalog builders below and
    the mini-model mirrors of :mod:`repro.models.trainable` both build
    through it.  Layer idioms derive each op's output shape and FLOPs from
    its source's shape.
    """

    def __init__(self, input_shape: tuple[int, ...]) -> None:
        self.dag = PrecisionDAG()
        self.dag.add_op(
            OperatorSpec("input", OpKind.INPUT, output_shape=input_shape)
        )
        self._shapes: dict[str, tuple[int, ...]] = {"input": input_shape}

    def shape(self, name: str) -> tuple[int, ...]:
        return self._shapes[name]

    def add(
        self,
        name: str,
        kind: OpKind,
        inputs: list[str],
        output_shape: tuple[int, ...],
        weight_shape: tuple[int, ...] | None = None,
        flops: float = 0.0,
        block: str | None = None,
    ) -> str:
        self.dag.add_op(
            OperatorSpec(
                name,
                kind,
                output_shape=output_shape,
                weight_shape=weight_shape,
                flops=flops,
                block=block,
            ),
            inputs=inputs,
        )
        self._shapes[name] = output_shape
        return name

    def finish(self, src: str) -> PrecisionDAG:
        """Close the graph with its LOSS op on ``src``; the validated DAG."""
        self.add("loss", OpKind.LOSS, [src], (1,))
        self.dag.validate()
        return self.dag

    # ------------------------------------------------------------------
    # common layer idioms
    # ------------------------------------------------------------------
    def conv(
        self,
        name: str,
        src: str,
        out_c: int,
        k: int,
        stride: int = 1,
        pad: int | None = None,
        block: str | None = None,
    ) -> str:
        n, in_c, h, w = self.shape(src)
        pad = k // 2 if pad is None else pad
        oh = (h + 2 * pad - k) // stride + 1
        ow = (w + 2 * pad - k) // stride + 1
        return self.add(
            name,
            OpKind.CONV2D,
            [src],
            (n, out_c, oh, ow),
            weight_shape=(out_c, in_c, k, k),
            flops=conv2d_flops(n, in_c, out_c, oh, ow, k, k),
            block=block,
        )

    def elementwise(
        self,
        name: str,
        kind: OpKind,
        inputs: list[str],
        factor: float = 1,
        block: str | None = None,
    ) -> str:
        """An op shaped like its first input, costing ``factor`` FLOPs per
        output element."""
        shape = self.shape(inputs[0])
        return self.add(
            name, kind, inputs, shape,
            flops=factor * elementwise_flops(shape), block=block,
        )

    def bn(self, name: str, src: str, block: str | None = None) -> str:
        return self.elementwise(name, OpKind.BATCHNORM, [src], 2, block)

    def relu(self, name: str, src: str, block: str | None = None) -> str:
        return self.elementwise(name, OpKind.RELU, [src], 1, block)

    def maxpool(self, name: str, src: str, k: int = 2) -> str:
        n, c, h, w = self.shape(src)
        return self.add(
            name, OpKind.MAXPOOL, [src], (n, c, h // k, w // k),
            flops=elementwise_flops(self.shape(src)),
        )

    def avgpool(self, name: str, src: str) -> str:
        """Global average pool: ``(n, c, ...)`` to ``(n, c)``."""
        shape = self.shape(src)
        return self.add(
            name, OpKind.AVGPOOL, [src], shape[:2],
            flops=elementwise_flops(shape),
        )

    def attention(
        self,
        prefix: str,
        q: str,
        k: str,
        v: str,
        heads: int,
        softmax_factor: float = 1,
        block: str | None = None,
    ) -> str:
        """Multi-head attention over ``(n, seq, hidden)`` projections:
        ``{prefix}.scores``, ``{prefix}.softmax`` and ``{prefix}.context``."""
        n, seq, hidden = self.shape(q)
        flops = 2.0 * n * heads * seq * seq * (hidden // heads)
        scores = self.add(
            f"{prefix}.scores", OpKind.MATMUL, [q, k], (n, heads, seq, seq),
            flops=flops, block=block,
        )
        probs = self.elementwise(
            f"{prefix}.softmax", OpKind.SOFTMAX, [scores], softmax_factor, block
        )
        return self.add(
            f"{prefix}.context", OpKind.MATMUL, [probs, v], (n, seq, hidden),
            flops=flops, block=block,
        )

    def linear(
        self, name: str, src: str, out_features: int, block: str | None = None
    ) -> str:
        shape = self.shape(src)
        in_features = shape[-1]
        tokens = 1
        for d in shape[:-1]:
            tokens *= d
        return self.add(
            name,
            OpKind.LINEAR,
            [src],
            shape[:-1] + (out_features,),
            weight_shape=(out_features, in_features),
            flops=linear_flops(tokens, in_features, out_features),
            block=block,
        )


# ---------------------------------------------------------------------------
# VGG16 / VGG16BN
# ---------------------------------------------------------------------------

_VGG16_CFG: list[int | str] = [
    64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
    512, 512, 512, "M", 512, 512, 512, "M",
]


def vgg16_graph(
    batch_size: int = 128,
    image_size: int = 224,
    num_classes: int = 1000,
    batch_norm: bool = False,
) -> PrecisionDAG:
    """VGG16 (optionally with BN), ImageNet configuration."""
    b = GraphBuilder((batch_size, 3, image_size, image_size))
    prev = "input"
    conv_idx = 0
    stage = 0
    for item in _VGG16_CFG:
        if item == "M":
            prev = b.maxpool(f"pool{stage}", prev, 2)
            stage += 1
            continue
        blk = f"stage{stage}"
        prev = b.conv(f"features.conv{conv_idx}", prev, int(item), 3, block=blk)
        if batch_norm:
            prev = b.bn(f"features.bn{conv_idx}", prev, block=blk)
        prev = b.relu(f"features.relu{conv_idx}", prev, block=blk)
        conv_idx += 1
    n, c, h, w = b.shape(prev)
    prev = b.add("flatten", OpKind.FLATTEN, [prev], (n, c * h * w))
    prev = b.linear("classifier.fc0", prev, 4096, block="classifier")
    prev = b.relu("classifier.relu0", prev, block="classifier")
    prev = b.linear("classifier.fc1", prev, 4096, block="classifier")
    prev = b.relu("classifier.relu1", prev, block="classifier")
    prev = b.linear("classifier.fc2", prev, num_classes, block="classifier")
    return b.finish(prev)


def vgg16bn_graph(batch_size: int = 128, image_size: int = 224,
                  num_classes: int = 1000) -> PrecisionDAG:
    """VGG16 with batch normalization."""
    return vgg16_graph(batch_size, image_size, num_classes, batch_norm=True)


# ---------------------------------------------------------------------------
# ResNet50
# ---------------------------------------------------------------------------


def resnet50_graph(
    batch_size: int = 128, image_size: int = 224, num_classes: int = 1000
) -> PrecisionDAG:
    """ResNet50 bottleneck architecture, ImageNet configuration.

    52 adjustable convs + 1 FC: stem (1) + 16 bottlenecks × 3 + 4 downsample
    projections = 53 convs total; the paper's "52 Conv2D operators" counts
    the quantizable convs excluding the FP32-pinned stem.
    """
    b = GraphBuilder((batch_size, 3, image_size, image_size))
    prev = b.conv("stem.conv", "input", 64, 7, stride=2, pad=3, block="stem")
    prev = b.bn("stem.bn", prev, block="stem")
    prev = b.relu("stem.relu", prev, block="stem")
    prev = b.maxpool("stem.pool", prev, 2)

    stages = [
        ("layer1", 3, 64, 256, 1),
        ("layer2", 4, 128, 512, 2),
        ("layer3", 6, 256, 1024, 2),
        ("layer4", 3, 512, 2048, 2),
    ]
    for stage_name, blocks, width, out_c, first_stride in stages:
        for i in range(blocks):
            blk = f"{stage_name}.{i}"
            stride = first_stride if i == 0 else 1
            identity = prev
            x = b.conv(f"{blk}.conv1", prev, width, 1, stride=1, pad=0, block=blk)
            x = b.bn(f"{blk}.bn1", x, block=blk)
            x = b.relu(f"{blk}.relu1", x, block=blk)
            x = b.conv(f"{blk}.conv2", x, width, 3, stride=stride, pad=1, block=blk)
            x = b.bn(f"{blk}.bn2", x, block=blk)
            x = b.relu(f"{blk}.relu2", x, block=blk)
            x = b.conv(f"{blk}.conv3", x, out_c, 1, stride=1, pad=0, block=blk)
            x = b.bn(f"{blk}.bn3", x, block=blk)
            if i == 0:
                identity = b.conv(
                    f"{blk}.downsample", identity, out_c, 1, stride=stride,
                    pad=0, block=blk,
                )
                identity = b.bn(f"{blk}.downsample_bn", identity, block=blk)
            x = b.elementwise(f"{blk}.add", OpKind.ADD, [x, identity], 1, blk)
            prev = b.relu(f"{blk}.relu3", x, block=blk)

    prev = b.avgpool("avgpool", prev)
    prev = b.linear("fc", prev, num_classes, block="head")
    return b.finish(prev)


# ---------------------------------------------------------------------------
# BERT / RoBERTa
# ---------------------------------------------------------------------------


def _transformer_graph(
    prefix: str,
    batch_size: int,
    seq_len: int,
    hidden: int,
    layers: int,
    heads: int,
    vocab: int,
    head_outputs: int,
) -> PrecisionDAG:
    b = GraphBuilder((batch_size, seq_len))
    prev = b.add(
        "embeddings",
        OpKind.EMBEDDING,
        ["input"],
        (batch_size, seq_len, hidden),
        weight_shape=(vocab, hidden),
        flops=elementwise_flops((batch_size, seq_len, hidden)),
    )
    for i in range(layers):
        blk = f"encoder.{i}"
        ln1 = b.elementwise(f"{blk}.ln1", OpKind.LAYERNORM, [prev], 4, blk)
        q = b.linear(f"{blk}.attn.q", ln1, hidden, block=blk)
        k = b.linear(f"{blk}.attn.k", ln1, hidden, block=blk)
        v = b.linear(f"{blk}.attn.v", ln1, hidden, block=blk)
        ctx = b.attention(f"{blk}.attn", q, k, v, heads, 4, blk)
        attn_out = b.linear(f"{blk}.attn.out", ctx, hidden, block=blk)
        res1 = b.elementwise(f"{blk}.add1", OpKind.ADD, [attn_out, prev], 1, blk)
        ln2 = b.elementwise(f"{blk}.ln2", OpKind.LAYERNORM, [res1], 4, blk)
        fc1 = b.linear(f"{blk}.mlp.fc1", ln2, hidden * 4, block=blk)
        act = b.elementwise(f"{blk}.mlp.gelu", OpKind.GELU, [fc1], 8, blk)
        fc2 = b.linear(f"{blk}.mlp.fc2", act, hidden, block=blk)
        prev = b.elementwise(f"{blk}.add2", OpKind.ADD, [fc2, res1], 1, blk)
    head = b.linear(f"{prefix}.head", prev, head_outputs, block="head")
    return b.finish(head)


def bert_graph(batch_size: int = 12, seq_len: int = 384) -> PrecisionDAG:
    """BERT-base for SQuAD QA: 12 layers, hidden 768, QA span head.

    73 adjustable linears: 12 layers × 6 (q/k/v/out/fc1/fc2) + 1 head —
    matching the paper's search-space arithmetic (3^73, Sec. II-B).
    """
    return _transformer_graph(
        "qa", batch_size, seq_len, hidden=768, layers=12, heads=12,
        vocab=30_522, head_outputs=2,
    )


def roberta_graph(batch_size: int = 16, seq_len: int = 128) -> PrecisionDAG:
    """RoBERTa-base for SWAG multiple choice: 12 layers, hidden 768."""
    return _transformer_graph(
        "mc", batch_size, seq_len, hidden=768, layers=12, heads=12,
        vocab=50_265, head_outputs=1,
    )


#: Name -> builder, for the experiment harnesses.
MODEL_GRAPHS: dict[str, Callable[..., PrecisionDAG]] = {
    "vgg16": vgg16_graph,
    "vgg16bn": vgg16bn_graph,
    "resnet50": resnet50_graph,
    "bert": bert_graph,
    "roberta": roberta_graph,
}
