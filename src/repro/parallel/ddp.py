"""Hybrid mixed-precision synchronous data-parallel training.

One :class:`DataParallelTrainer` owns K model replicas (one per simulated
worker).  Each step:

1. every worker runs forward/backward on its *local* batch under its *own*
   per-operator precision plan (quantization noise streams are worker-
   independent — Proposition 1's unbiasedness then makes the averaged
   gradient unbiased);
2. gradients are all-reduced (weighted by local batch size, which matters
   for Dynamic Batch Sizing);
3. every worker's optimizer applies the identical averaged gradient, so
   replicas stay bit-identical in their FP32 master weights.

BatchNorm running statistics are intentionally **not** synchronized (the
paper discusses sync-BN as a costly alternative, Sec. II-A); evaluation uses
worker 0's statistics, reproducing the DBS degradation mechanism.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.common.dtypes import Precision
from repro.common.rng import derive_seed
from repro.parallel.collective import allreduce_gradients
from repro.tensor import functional as F
from repro.tensor.modules import Module
from repro.tensor.qmodules import QuantizedOp
from repro.train.data import Dataset
from repro.train.loop import TrainResult, evaluate, forward_batch
from repro.train.optim import Optimizer


@dataclasses.dataclass
class WorkerConfig:
    """One simulated worker's training identity."""

    rank: int
    batch_size: int
    #: Module path -> precision (missing = FP32).
    plan: dict[str, Precision] = dataclasses.field(default_factory=dict)
    rounding: str = "stochastic"


class DataParallelTrainer:
    """Synchronous DDP across heterogeneous (simulated) workers.

    Parameters
    ----------
    model_factory:
        ``(seed) -> Module``; every replica is built with the same seed and
        then force-synchronized from replica 0's state.
    workers:
        Per-worker configs (batch size, precision plan).
    optimizer_factory:
        ``(model) -> Optimizer``; one optimizer per replica (their updates
        coincide because gradients do).
    seed:
        Master seed; per-worker quantization-noise streams derive from it.
    """

    def __init__(
        self,
        model_factory: Callable[[int], Module],
        workers: list[WorkerConfig],
        optimizer_factory: Callable[[Module], Optimizer],
        seed: int = 0,
    ) -> None:
        if not workers:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.seed = seed
        self.replicas: list[Module] = [model_factory(seed) for _ in workers]
        state = self.replicas[0].state_arrays()
        for replica in self.replicas[1:]:
            replica.load_state_arrays(state)
        for cfg, replica in zip(workers, self.replicas):
            QuantizedOp.install_plan(
                replica,
                cfg.plan,
                seed=derive_seed(seed, "worker", cfg.rank),
                rounding=cfg.rounding,
            )
        self.optimizers = [optimizer_factory(m) for m in self.replicas]

    # ------------------------------------------------------------------
    @property
    def batch_sizes(self) -> list[int]:
        return [w.batch_size for w in self.workers]

    def step(self, shards: list[tuple[np.ndarray, np.ndarray]]) -> float:
        """One synchronous training step; returns the global-batch mean loss.

        Per-worker losses are means over *local* shards, so the aggregate
        must weight each by its shard's sample count — exactly the weighting
        the gradient all-reduce uses.  An unweighted mean would over-count
        small-batch workers under Dynamic Batch Sizing.
        """
        if len(shards) != len(self.replicas):
            raise ValueError(
                f"{len(shards)} shards for {len(self.replicas)} workers"
            )
        losses = []
        shard_sizes = []
        for (xb, yb), replica, opt in zip(shards, self.replicas, self.optimizers):
            opt.zero_grad()
            loss = F.cross_entropy(forward_batch(replica, xb), yb)
            loss.backward()
            losses.append(loss.item())
            shard_sizes.append(float(len(yb)))
        # Weight by the *actual* shard sizes for gradients and loss alike:
        # per-worker means recombine into exact global-batch means even on
        # ragged tail shards (in-repo sharding always fills to the
        # configured batch sizes, where the two coincide).
        allreduce_gradients(self.replicas, weights=shard_sizes)
        for opt in self.optimizers:
            opt.step()
        return float(np.average(losses, weights=shard_sizes))

    # ------------------------------------------------------------------
    def train(
        self,
        dataset: Dataset,
        epochs: int,
        metric: str = "top1",
    ) -> TrainResult:
        """Full training run; evaluates replica 0 after each epoch."""
        rng = np.random.default_rng(derive_seed(self.seed, "data"))
        losses: list[float] = []
        history: list[float] = []
        for _ in range(epochs):
            for shards in dataset.shard_batches(self.batch_sizes, rng, epochs=1):
                losses.append(self.step(shards))
            history.append(
                evaluate(self.replicas[0], dataset, metric=metric)
            )
        return TrainResult(
            final_accuracy=history[-1] if history else 0.0,
            best_accuracy=max(history) if history else 0.0,
            history=history,
            losses=losses,
        )

    # ------------------------------------------------------------------
    def replicas_synchronized(self) -> bool:
        """True iff all replicas' master weights are bit-identical —
        the synchronous-training invariant, property-tested."""
        ref = self.replicas[0].state_arrays()
        for replica in self.replicas[1:]:
            for name, arr in replica.state_arrays().items():
                if not np.array_equal(ref[name], arr):
                    return False
        return True
