"""Precision formats used throughout QSync.

The paper selects operator precisions among ``INT8``, ``FP16`` and ``FP32``
(Sec. VII, "Benchmarks").  A :class:`Precision` carries everything the rest of
the system needs to reason about a format: bit width, storage bytes,
fixed-vs-floating point, and (for floats) the exponent/mantissa split used by
the variance theory of Proposition 2.
"""

from __future__ import annotations

import enum
from typing import Union


class Precision(enum.Enum):
    """A numeric format an operator can execute in.

    Members are ordered by bit width; :data:`PRECISION_ORDER` gives the
    canonical low-to-high ordering.  The Allocator walks each op's own
    candidates in that order (:func:`repro.core.allocator.at_or_above`).
    """

    INT8 = "int8"
    FP16 = "fp16"
    FP32 = "fp32"

    #: Members are singletons and equality is identity, so the identity hash
    #: is consistent with ``==`` and runs in C.  ``Enum.__hash__`` hashes the
    #: member name in Python: per-process salted just the same, and the
    #: hottest call in the allocator's price-memo keys.
    __hash__ = object.__hash__

    # ------------------------------------------------------------------
    # format properties
    # ------------------------------------------------------------------
    @property
    def bits(self) -> int:
        """Total storage bits of the format."""
        return _BITS[self]

    @property
    def nbytes(self) -> int:
        """Storage bytes per element."""
        return self.bits // 8

    @property
    def is_floating_point(self) -> bool:
        return self in (Precision.FP16, Precision.FP32)

    @property
    def is_fixed_point(self) -> bool:
        return self is Precision.INT8

    @property
    def stochastic_mantissa_bits(self) -> int:
        """``k`` in Proposition 2 (``epsilon = 2**-k``); 9 for FP16, whose
        10 stored mantissa bits give 9 fully-stochastic roundable bits in
        the paper's accounting."""
        if self is Precision.FP16:
            return 9
        if self is Precision.FP32:
            return 23
        raise ValueError(f"{self} has no mantissa")

    @property
    def max_exponent(self) -> int:
        """Largest unbiased exponent representable (IEEE-754 style)."""
        if self is Precision.FP16:
            return 15
        if self is Precision.FP32:
            return 127
        raise ValueError(f"{self} has no exponent")

    @property
    def min_exponent(self) -> int:
        """Smallest normal unbiased exponent."""
        if self is Precision.FP16:
            return -14
        if self is Precision.FP32:
            return -126
        raise ValueError(f"{self} has no exponent")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Precision.{self.name}"


_BITS = {Precision.INT8: 8, Precision.FP16: 16, Precision.FP32: 32}

#: Canonical low-to-high ordering.
PRECISION_ORDER: tuple[Precision, ...] = (
    Precision.INT8,
    Precision.FP16,
    Precision.FP32,
)


def parse_precision(value: Union[str, int, Precision]) -> Precision:
    """Coerce a user-supplied precision designator to a :class:`Precision`.

    Accepts the enum itself, names/values (``"fp16"``, ``"FP16"``) or bit
    widths (``8``, ``16``, ``32``) as used in the paper's notation ``b_io``.
    """
    if isinstance(value, Precision):
        return value
    if isinstance(value, int):
        by_bits = {8: Precision.INT8, 16: Precision.FP16, 32: Precision.FP32}
        if value not in by_bits:
            raise ValueError(f"no precision with bit width {value}")
        return by_bits[value]
    if isinstance(value, str):
        name = value.strip().lower()
        for prec in Precision:
            if name in (prec.value, prec.name.lower()):
                return prec
        raise ValueError(f"unknown precision {value!r}")
    raise TypeError(f"cannot interpret {value!r} as a precision")


def higher_precision(prec: Precision) -> Precision | None:
    """Next precision up in :data:`PRECISION_ORDER`, or ``None`` at the top."""
    idx = PRECISION_ORDER.index(prec)
    if idx + 1 >= len(PRECISION_ORDER):
        return None
    return PRECISION_ORDER[idx + 1]

