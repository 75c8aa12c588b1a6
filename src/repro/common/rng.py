"""Random-number discipline.

Stochastic rounding makes the whole training stack randomized, so every
component that draws randomness takes an explicit ``numpy.random.Generator``.
These helpers centralize construction so experiments are reproducible, and
:func:`derive_seed` gives each worker of the data-parallel trainer its own
stream.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def new_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a fresh PCG64 generator.

    ``None`` gives OS entropy; an int gives a reproducible stream.
    """
    return np.random.default_rng(seed)


def derive_seed(seed: int, *keys: Iterable) -> int:
    """Mix arbitrary hashable keys into a base seed deterministically.

    ``seed`` must convert to a 64-bit unsigned integer: a Python int
    outside ``[0, 2**64)`` raises :class:`OverflowError`.  Each key mixes
    in the UTF-8 bytes of its ``str()`` through 64-bit FNV-1a, on Python
    ints (one ``np.uint64`` conversion per call, for the seed's range
    check); the result lies in ``[0, 2**31 - 1)``.
    """
    h = int(np.uint64(seed))
    for key in keys:
        for ch in str(key).encode():
            # FNV-1a style mixing, cheap and adequate for seeding.
            h = ((h ^ ch) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % (2**31 - 1)
