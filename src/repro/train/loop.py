"""Shared pieces of the training loop: the result record and evaluation.

The loop itself is :class:`repro.parallel.ddp.DataParallelTrainer`; the
ORACLE configuration is that trainer with every worker at FP32.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.tensor import Tensor, no_grad
from repro.tensor.modules import Module
from repro.train.data import Dataset
from repro.train.metrics import f1_macro, top1_accuracy


@dataclasses.dataclass
class TrainResult:
    """Outcome of one training run."""

    final_accuracy: float
    best_accuracy: float
    history: list[float]
    losses: list[float]


def forward_batch(model: Module, x: np.ndarray) -> Tensor:
    """Run ``model`` on one input batch: token models take the raw integer
    array, every other model a :class:`Tensor` of it."""
    if np.issubdtype(np.asarray(x).dtype, np.integer):
        return model(x)  # token models take raw integer arrays
    return model(Tensor(x))


def evaluate(
    model: Module, dataset: Dataset, metric: str = "top1", batch_size: int = 128
) -> float:
    """Accuracy of ``model`` on the test split."""
    model.eval()
    fn = top1_accuracy if metric == "top1" else f1_macro
    logits_all = []
    with no_grad():
        for start in range(0, len(dataset.test_y), batch_size):
            xb = dataset.test_x[start : start + batch_size]
            logits_all.append(forward_batch(model, xb).numpy())
    model.train()
    logits = np.concatenate(logits_all, axis=0)
    return fn(logits, dataset.test_y)
