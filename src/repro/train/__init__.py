"""Training substrate: optimizers, synthetic data, metrics, evaluation."""

from repro.train.data import (
    Dataset,
    make_image_classification,
    make_token_classification,
)
from repro.train.loop import TrainResult, evaluate, forward_batch
from repro.train.metrics import f1_macro, top1_accuracy
from repro.train.optim import SGD, Adam, Optimizer

__all__ = [
    "SGD",
    "Adam",
    "Optimizer",
    "Dataset",
    "make_image_classification",
    "make_token_classification",
    "top1_accuracy",
    "f1_macro",
    "TrainResult",
    "evaluate",
    "forward_batch",
]
