"""Shared test helpers: finite-difference oracle and gradient flattening."""

import numpy as np


def finite_difference_grads(loss_fn, theta, h=1e-5):
    """Central-difference gradient of loss_fn() w.r.t. every entry of the
    flat parameter vector ``theta``, perturbed in place and restored."""
    g = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        up = loss_fn()
        theta[i] = orig - h
        down = loss_fn()
        theta[i] = orig
        g[i] = (up - down) / (2 * h)
    return g


def flatten_grads(model) -> np.ndarray:
    """Copy of the model's flat gradient, which is then marked consumed."""
    model.grad_fresh = False
    return model.grad.copy()
