"""The scalar loss handle and the errors of the float64 numerics.

A loss function (``nn.row_sq_error_mean``, ``nn.bce_with_logits``) runs
the network forward itself and returns a ``Tensor``: the loss value and
the one function that pushes its gradient back, by forming
d(loss)/d(output) and calling ``Mlp.backward``. There is no graph to walk:
``backward()`` runs that function once, and a second call raises
``AutodiffError``.

Every forward value and every gradient is checked for NaN/Inf and raises
``NonFiniteError`` instead of letting bad values propagate.
"""

from __future__ import annotations

import math

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
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values encountered in {context}")


class Tensor:
    """A scalar float64 loss value and ``backward_fn()``, which backpropagates it."""

    __slots__ = ("data", "_backward")

    def __init__(self, value, backward_fn):
        arr = np.asarray(value, dtype=np.float64)
        if arr.size != 1:
            raise ShapeError(f"a loss must be a scalar, got shape {arr.shape}")
        _check_finite(arr, "loss")
        self.data = arr
        self._backward = backward_fn

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Write d(loss)/d(theta) into the network's ``grad``; runs once."""
        if self._backward is None:
            raise AutodiffError("backward() already ran on this loss")
        step, self._backward = self._backward, None
        step()
