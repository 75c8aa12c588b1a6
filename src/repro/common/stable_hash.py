"""Process-stable hashing.

Python's builtin ``hash`` is salted per interpreter (``PYTHONHASHSEED``),
so any fingerprint or cache key derived from it dies at the process
boundary: a child worker computes a different key for the *same* graph and
every cross-process cache degenerates to a miss — or worse, "ground truth"
measurements indexed by such a hash change between runs.  Everything that
wants a key that survives process boundaries (the Replayer's cross-DAG
caches, the experiment artifact store, sweep cell fingerprints) must go
through this module instead.

The scheme is a canonical byte encoding (type-tagged, recursion-safe,
order-normalized for mappings) fed to ``hashlib.blake2b``.  Tuples and
lists encode identically on purpose: JSON round-trips turn tuples into
lists, and a fingerprint must not change just because a value crossed a
serialization boundary.
"""

from __future__ import annotations

import enum
import hashlib
import numbers
import struct
from typing import Any

__all__ = [
    "canonical_encode",
    "stable_digest",
    "stable_hash",
    "stable_mod",
    "try_stable_digest",
]


def canonical_encode(obj: Any) -> bytes:
    """Deterministic byte encoding of a JSON-like value tree.

    Supports ``None``, bools, ints, floats, strings, bytes, sequences
    (tuple/list, encoded identically), mappings (sorted by encoded key),
    sets/frozensets (sorted by encoded element) and :class:`enum.Enum`
    members (encoded by class and member name, not by ``value``, so an
    enum's payload representation may change without moving every
    fingerprint).  Numpy scalars ride along via the ``numbers`` ABCs.
    """
    out = bytearray()
    _encode(obj, out)
    return bytes(out)


def _encode(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif isinstance(obj, bool):
        out += b"T" if obj else b"F"
    elif isinstance(obj, enum.Enum):
        token = f"{type(obj).__name__}.{obj.name}".encode()
        out += b"E" + len(token).to_bytes(4, "big") + token
    # The builtins go before the ``numbers`` ABCs: an ABC ``isinstance``
    # miss walks the registry, and strings and sequences are most of every
    # fingerprinted tree.  No builtin str/sequence/bytes type is also an
    # Integral or Real, so the order does not change a byte.
    elif isinstance(obj, str):
        token = obj.encode()
        out += b"S" + len(token).to_bytes(4, "big") + token
    elif isinstance(obj, (tuple, list)):
        out += b"L" + len(obj).to_bytes(4, "big")
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, (bytes, bytearray)):
        out += b"B" + len(obj).to_bytes(4, "big") + bytes(obj)
    elif isinstance(obj, numbers.Integral):
        token = str(int(obj)).encode()
        out += b"I" + len(token).to_bytes(4, "big") + token
    elif isinstance(obj, numbers.Real):
        # Bit-exact: distinguishes -0.0/0.0 and is total over NaN payloads.
        out += b"D" + struct.pack(">d", float(obj))
    elif isinstance(obj, (set, frozenset)):
        encoded = sorted(canonical_encode(item) for item in obj)
        out += b"X" + len(encoded).to_bytes(4, "big")
        for item in encoded:
            out += item
    elif isinstance(obj, dict):
        pairs = sorted(
            (canonical_encode(k), canonical_encode(v)) for k, v in obj.items()
        )
        out += b"M" + len(pairs).to_bytes(4, "big")
        for k, v in pairs:
            out += k + v
    else:
        raise TypeError(
            f"canonical_encode: unsupported type {type(obj).__name__!r} "
            f"(value {obj!r}); pass primitives, sequences, mappings or enums"
        )


def stable_digest(obj: Any) -> str:
    """Hex 16-byte blake2b digest of :func:`canonical_encode`; the
    artifact-store content address (32 hex chars)."""
    return hashlib.blake2b(canonical_encode(obj), digest_size=16).hexdigest()


def try_stable_digest(obj: Any) -> str | None:
    """:func:`stable_digest`, or ``None`` when the value tree contains a
    member :func:`canonical_encode` cannot represent (a callable, a built
    graph, a custom cost-model instance, ...).

    This is the content-vs-identity boundary of every fingerprint consumer:
    a ``None`` means "this value has no content address" — callers must fall
    back to treating the object as opaque (no cross-process key, no request
    coalescing) rather than inventing an identity-derived key.
    """
    try:
        return stable_digest(obj)
    except TypeError:
        return None


def stable_hash(obj: Any) -> int:
    """64-bit unsigned integer digest — a drop-in for builtin ``hash`` where
    an int key is wanted but must survive process boundaries."""
    raw = hashlib.blake2b(canonical_encode(obj), digest_size=8).digest()
    return int.from_bytes(raw, "big")


def stable_mod(obj: Any, mod: int) -> int:
    """``stable_hash(obj) % mod`` — stable replacement for the
    ``hash(x) % n`` bucket-index idiom."""
    if mod <= 0:
        raise ValueError("mod must be positive")
    return stable_hash(obj) % mod
