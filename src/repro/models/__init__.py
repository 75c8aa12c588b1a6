"""Model zoo.

Two families, whose graphs both build through
:class:`~repro.models.catalog.GraphBuilder`:

* :mod:`repro.models.catalog` — *graph builders* producing
  :class:`~repro.graph.dag.PrecisionDAG` s with the real shapes/FLOPs of the
  paper's benchmark models (ResNet50, VGG16, VGG16BN, BERT, RoBERTa).  These
  feed the Predictor/Allocator — no numerics, just structure and cost facts.
* :mod:`repro.models.trainable` — *executable* scaled-down counterparts
  built on :mod:`repro.tensor`, used wherever real training must run
  (indicator statistics, accuracy tables).  Their adjustable-operator layout
  mirrors the big models one-to-one in kind and ordering, and
  :func:`~repro.models.trainable.mini_model_graph` spells each one's graph
  mirror with the same builder.
"""

from repro.models.catalog import (
    MODEL_GRAPHS,
    bert_graph,
    resnet50_graph,
    roberta_graph,
    vgg16_graph,
)
from repro.models.trainable import (
    MiniConvNet,
    MiniResNet,
    MiniTransformer,
    make_mini_model,
    mini_model_graph,
)

__all__ = [
    "vgg16_graph",
    "resnet50_graph",
    "bert_graph",
    "roberta_graph",
    "MODEL_GRAPHS",
    "MiniConvNet",
    "MiniResNet",
    "MiniTransformer",
    "make_mini_model",
    "mini_model_graph",
]
