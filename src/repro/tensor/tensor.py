"""The autodiff tape.

A :class:`Tensor` wraps a float64 numpy array plus the closure needed to
backpropagate into its parents.  ``backward()`` runs a reverse topological
walk of the recorded graph.  The design follows the classic micro-autograd
pattern but is written for vectorized numpy throughout (no per-element
Python), per the HPC guide: the hot paths are the ops themselves, which live
in :mod:`repro.tensor.functional`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional

import numpy as np

_GRAD_ENABLED: bool = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / profiling)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A node in the autodiff tape.

    Parameters
    ----------
    data:
        Array-like; stored as ``float64`` (the engine's "FP32 reference"
        dtype — low-precision effects are injected explicitly by the
        quantizers, never by accident through numpy dtype promotion).
    requires_grad:
        Whether gradients should be accumulated into ``.grad``.
    parents:
        Upstream tensors this value was computed from.
    backward_fn:
        Closure mapping the output gradient to per-parent contributions;
        ``None`` for leaves.
    op:
        Human-readable op label (debugging / graph dumps).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Optional[Callable[[np.ndarray], Iterable[np.ndarray]]] = None,
        op: str = "leaf",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = parents if self.requires_grad or backward_fn else ()
        self._backward_fn = backward_fn if _GRAD_ENABLED else None
        self.op = op

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], Iterable[Optional[np.ndarray]]],
        op: str,
    ) -> "Tensor":
        """Create a non-leaf node; drops the tape when grad is disabled."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data, requires_grad=False, op=op)
        return Tensor(
            data,
            requires_grad=True,
            parents=parents,
            backward_fn=backward_fn,
            op=op,
        )

    # ------------------------------------------------------------------
    # array-ish protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's storage, cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tensor(shape={self.shape}, op={self.op!r}, "
            f"requires_grad={self.requires_grad})"
        )

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this node.

        ``grad`` defaults to ones (for scalar losses this is the usual
        ``dL/dL = 1``).  Gradients accumulate into ``.grad`` of every
        reachable leaf tensor with ``requires_grad=True``; interior
        gradients are not retained (memory).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        topo = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}

        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward_fn is None:
                # Leaf: accumulate.
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad += node_grad
                continue
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if pgrad.shape != parent.data.shape:
                    raise ValueError(
                        f"op {node.op!r} produced gradient of shape "
                        f"{pgrad.shape} for parent of shape {parent.data.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    def _topological_order(self) -> list["Tensor"]:
        """Iterative post-order DFS (recursion-free: deep nets overflow
        CPython's stack otherwise)."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # operator sugar (delegates to functional, imported lazily to avoid
    # a circular import at module load)
    # ------------------------------------------------------------------
    def _f(self):
        from repro.tensor import functional as F

        return F

    def __add__(self, other):
        return self._f().add(self, _coerce(other))

    def __radd__(self, other):
        return self._f().add(_coerce(other), self)

    def __mul__(self, other):
        return self._f().mul(self, _coerce(other))

    def __rmul__(self, other):
        return self._f().mul(_coerce(other), self)

    def __matmul__(self, other):
        return self._f().matmul(self, _coerce(other))

    def mean(self, axis=None, keepdims=False):
        return self._f().mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return self._f().reshape(self, shape)


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Sums over the leading added axes and any axis where the original
    dimension was 1 — the adjoint of broadcasting.
    """
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were expanded from 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
