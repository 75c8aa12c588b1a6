"""Synthetic datasets (the ImageNet/SQuAD/SWAG substitution, see
CONTRIBUTING.md "Substitutions").

Design goals: deterministic given a seed; hard enough that training takes
multiple epochs and final accuracy sits well below 100 % (so accuracy
*deltas* between precision policies are measurable); structured like the
original modality (spatially-correlated class patterns for images,
positional token patterns for sequences).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.common.rng import new_rng

# Image task: class-template amplitude against unit white noise.  The ratio
# puts a linear probe at ~65 % and small conv nets at ~70-85 %.
TEMPLATE_AMPLITUDE = 0.12
IMAGE_NOISE = 1.0
# Token task: planted tokens per class, and the chance each is swapped out.
SIGNAL_TOKENS = 3
NOISE_SWAP_PROB = 0.35


@dataclasses.dataclass
class Dataset:
    """An in-memory supervised dataset with a train/test split."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int

    @property
    def n_train(self) -> int:
        return len(self.train_y)

    def batches(self, batch_size: int, rng: np.random.Generator, epochs: int = 1):
        """Yield shuffled (x, y) minibatches for ``epochs`` passes."""
        n = self.n_train
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n - batch_size + 1, batch_size):
                idx = order[start : start + batch_size]
                yield self.train_x[idx], self.train_y[idx]

    def shard_batches(
        self,
        batch_sizes: list[int],
        rng: np.random.Generator,
        epochs: int = 1,
    ):
        """Yield per-worker batch lists with *heterogeneous* local sizes.

        Each yield is ``[(x_0, y_0), ..., (x_{K-1}, y_{K-1})]`` where worker
        ``k`` receives ``batch_sizes[k]`` samples — the Dynamic Batch Sizing
        data path.  The global batch is one contiguous shuffled slice, so
        uniform and DBS runs consume identical sample streams.
        """
        global_batch = int(np.sum(batch_sizes))
        n = self.n_train
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n - global_batch + 1, global_batch):
                idx = order[start : start + global_batch]
                shards = []
                offset = 0
                for bs in batch_sizes:
                    sel = idx[offset : offset + bs]
                    shards.append((self.train_x[sel], self.train_y[sel]))
                    offset += bs
                yield shards


def make_image_classification(
    n_train: int = 2048,
    n_test: int = 512,
    num_classes: int = 10,
    image_size: int = 16,
    channels: int = 3,
    seed: int = 0,
) -> Dataset:
    """Images whose class is encoded by a low-frequency spatial template.

    Each class has a random smooth template; samples are template + strong
    white noise + random global contrast.  ``TEMPLATE_AMPLITUDE`` against
    ``IMAGE_NOISE`` leaves enough headroom that precision-policy accuracy
    deltas are measurable.
    """
    rng = new_rng(seed)
    # Smooth class templates: random low-res pattern upsampled blockwise.
    low = 4
    templates = TEMPLATE_AMPLITUDE * rng.normal(size=(num_classes, channels, low, low))
    reps = image_size // low
    templates = np.repeat(np.repeat(templates, reps, axis=2), reps, axis=3)

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        y = rng.integers(0, num_classes, size=n)
        contrast = rng.uniform(0.7, 1.3, size=(n, 1, 1, 1))
        x = templates[y] * contrast + IMAGE_NOISE * rng.normal(
            size=(n, channels, image_size, image_size)
        )
        return x.astype(np.float64), y

    train_x, train_y = sample(n_train)
    test_x, test_y = sample(n_test)
    return Dataset(train_x, train_y, test_x, test_y, num_classes)


def make_token_classification(
    n_train: int = 2048,
    n_test: int = 512,
    num_classes: int = 4,
    seq_len: int = 16,
    vocab_size: int = 64,
    seed: int = 0,
) -> Dataset:
    """Token sequences whose class is a positional co-occurrence pattern.

    Each class plants ``SIGNAL_TOKENS`` specific tokens at specific
    positions; the rest of the sequence is uniform noise, and each signal
    token is independently replaced by noise with ``NOISE_SWAP_PROB`` — the
    sequence-classification proxy for the paper's fine-tuning tasks.
    """
    rng = new_rng(seed)
    positions = np.stack(
        [rng.choice(seq_len, size=SIGNAL_TOKENS, replace=False) for _ in range(num_classes)]
    )
    tokens = rng.integers(0, vocab_size, size=(num_classes, SIGNAL_TOKENS))

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        y = rng.integers(0, num_classes, size=n)
        x = rng.integers(0, vocab_size, size=(n, seq_len))
        keep = rng.random((n, SIGNAL_TOKENS)) > NOISE_SWAP_PROB
        rows = np.arange(n)
        for j in range(SIGNAL_TOKENS):
            pos = positions[y, j]
            planted = np.where(keep[:, j], tokens[y, j], x[rows, pos])
            x[rows, pos] = planted
        return x, y

    train_x, train_y = sample(n_train)
    test_x, test_y = sample(n_test)
    return Dataset(train_x, train_y, test_x, test_y, num_classes)
