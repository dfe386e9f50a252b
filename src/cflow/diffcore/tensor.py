"""Scalar loss handles and the errors of the float64 numerics.

A loss function returns a ``Tensor``: the loss value plus the steps that
push its gradient back. ``backward()`` walks a short parent chain (the loss
node, then the network output node), each step mapping the gradient of its
output to the gradient of its parent; the network node writes the
parameter gradient into its ``Mlp``'s flat ``grad`` buffer.

Every forward value and every gradient is checked for NaN/Inf and raises
``NonFiniteError`` instead of letting bad values propagate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "AutodiffError", "ShapeError", "NonFiniteError"]


class AutodiffError(Exception):
    """Base class for autodiff failures."""


class ShapeError(AutodiffError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(AutodiffError):
    """A NaN or Inf appeared in a forward value or a gradient."""


def _check_finite(arr: np.ndarray, context: str) -> None:
    # one reduction: any NaN/Inf element poisons the sum; the precise scan
    # runs only on the failure path to rule out benign overflow of the sum
    if not np.isfinite(arr.sum()) and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values encountered in {context}")


class Tensor:
    """A float64 value and, when differentiable, its link to a parent.

    ``backward_fn(grad)`` receives the gradient of this value and returns
    the gradient of ``parent`` (or None when it is the last node).
    """

    __slots__ = ("data", "_parent", "_backward")

    def __init__(self, data, parent: "Tensor | None" = None, backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self._parent = parent
        self._backward = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, differentiable={self._backward is not None})"

    def backward(self) -> None:
        """Push d(self)/d(self) = 1 down the chain; only defined for scalars.

        Each node's step runs once: the chain is consumed by the walk.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        if self._backward is None:
            raise AutodiffError("backward() on a tensor with no differentiable parents")
        node, grad = self, 1.0
        while node is not None and node._backward is not None:
            step, parent = node._backward, node._parent
            node._backward = node._parent = None
            grad = step(grad)
            node = parent
