"""First-order optimizers over an Mlp's flat parameter vector.

``step()`` consumes the gradient that ``backward()`` wrote into the
model's ``grad`` and marks it stale; stepping again without a fresh
backward raises ``StaleGradientError``. Each update is one elementwise
pass over ``theta``.
"""

from __future__ import annotations

import numpy as np

from .nn import Mlp
from .tensor import AutodiffError, _check_finite

__all__ = ["Sgd", "Adam", "StaleGradientError"]


class StaleGradientError(AutodiffError):
    """step() called before backward() populated fresh gradients."""


class _Optimizer:
    def __init__(self, model: Mlp, lr: float):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.model = model
        self.lr = float(lr)
        self.step_count = 0

    def _take_grad(self) -> np.ndarray:
        if not self.model.grad_fresh:
            raise StaleGradientError("step() before backward(): gradients are stale")
        _check_finite(self.model.grad, "gradient at step()")
        self.model.grad_fresh = False
        return self.model.grad


class Sgd(_Optimizer):
    """Plain gradient descent: theta <- theta - lr * grad."""

    def step(self) -> None:
        g = self._take_grad()
        theta = self.model.theta
        theta -= self.lr * g
        self.step_count += 1


class Adam(_Optimizer):
    """Adam with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(
        self,
        model: Mlp,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(model, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(model.theta)
        self.v = np.zeros_like(model.theta)

    def step(self) -> None:
        g = self._take_grad()
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        denom = np.sqrt(v / bc2)
        denom += self.eps
        theta = self.model.theta
        theta -= (self.lr / bc1) * m / denom
        self.step_count = t
