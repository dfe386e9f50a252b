"""Fully connected networks with an explicit forward and backward pass.

``Mlp`` is the single network class used everywhere: as a time-conditioned
velocity field (input ``d + 1``, output ``d``) and as a binary classifier
(input ``d``, output 1 logit). Hidden layers use tanh; the output layer is
linear. With ``widths == [in, out]`` the network is a single linear map,
which the integrator tests rely on.

All parameters live in one contiguous float64 vector ``theta``, laid out
as the checkpoint stores them: per layer, W (fan_in x fan_out, row-major)
then b. ``layers`` holds (W, b) views into it, and ``grad`` is a vector of
the same layout that ``backward`` fills.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _check_finite

__all__ = ["Mlp", "velocity_mlp", "bce_with_logits", "row_sq_error_mean", "num_parameters"]

DEFAULT_HIDDEN = (64, 64, 64)


def num_parameters(widths: list[int]) -> int:
    """Length of ``theta`` for a network of these layer widths."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def row_sq_error_mean(
    pred: Tensor,
    target: np.ndarray,
    weights: np.ndarray | None = None,
    normalized: bool = True,
) -> Tensor:
    """Mean of per-row squared L2 errors ||pred_i - target_i||^2.

    With ``weights`` the rows are combined as sum(w * e) / sum(w) when
    ``normalized`` (the batch form used in training) or mean(w * e)
    otherwise.
    """
    t = np.asarray(target, dtype=np.float64)
    residual = pred.data - t
    errors = (residual * residual).sum(axis=1)
    n = errors.shape[0]
    if weights is None:
        value = errors.mean()
        coef = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if normalized:
            total = w.sum()
            value = (w * errors).sum() / total
            coef = w / total
        else:
            value = (w * errors).mean()
            coef = w / n
    return Tensor(value, pred, lambda grad: grad * 2.0 * coef[:, None] * residual)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits, numerically stable.

    The forward uses mean(softplus(z) - y*z); the gradient is the closed
    form (sigmoid(z) - y) / n.
    """
    y = np.asarray(targets, dtype=np.float64).reshape(logits.shape)
    z = logits.data
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    def backward(grad):
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        return grad * (sig - y) / z.size

    return Tensor((softplus - y * z).mean(), logits, backward)


class Mlp:
    """Multi-layer perceptron with tanh hidden activations, linear output.

    Without ``theta``, weights are Glorot-normal initialized from a seeded
    generator so construction is bit-reproducible, and biases start at
    zero. With ``theta`` (length ``num_parameters(widths)``) the network
    takes a copy of those parameters and draws nothing.
    """

    def __init__(self, widths: list[int] | tuple[int, ...], seed: int = 0, theta=None):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"widths must list >= 2 positive sizes, got {widths}")
        self.widths = widths
        size = num_parameters(widths)
        self.theta = np.empty(size) if theta is None else np.array(theta, dtype=np.float64)
        if self.theta.shape != (size,):
            raise ShapeError(f"theta shape {self.theta.shape} does not fit widths {widths}")
        self.grad = np.zeros(size)
        self.grad_fresh = False  # set by backward(), consumed by an optimizer step
        self.layers = _layer_views(self.theta, widths)
        self._grad_layers = _layer_views(self.grad, widths)
        if theta is None:
            rng = np.random.default_rng(seed)
            for w, b in self.layers:
                fan_in, fan_out = w.shape
                w[...] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=w.shape)
                b[...] = 0.0

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def _checked_input(self, x) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.in_dim:
            raise ShapeError(f"expected input (n, {self.in_dim}), got {h.shape}")
        return h

    def forward(self, x) -> tuple[np.ndarray, list[np.ndarray]]:
        """Training forward pass on (n, in_dim) inputs.

        Returns the output and the cache ``backward`` needs: the input of
        every layer. Each layer's affine output is checked for NaN/Inf.
        """
        h = self._checked_input(x)
        cache = []
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            cache.append(h)
            h = h @ w
            h += b
            _check_finite(h, "affine")
            if i != last:
                np.tanh(h, out=h)
        return h, cache

    def backward(self, cache: list[np.ndarray], dout: np.ndarray) -> None:
        """Write d(loss)/d(theta) into ``grad`` given d(loss)/d(output).

        Overwrites ``grad`` and marks it fresh for the next optimizer step;
        the gradient with respect to the network input is never formed.
        """
        g = dout
        for i in range(len(self.layers) - 1, -1, -1):
            h = cache[i]
            gw, gb = self._grad_layers[i]
            np.matmul(h.T, g, out=gw)
            np.sum(g, axis=0, out=gb)
            if i:
                dtanh = h * h
                np.subtract(1.0, dtanh, out=dtanh)
                g = g @ self.layers[i][0].T
                g *= dtanh
        _check_finite(self.grad, "gradient")
        self.grad_fresh = True

    def __call__(self, x) -> Tensor:
        """Differentiable forward pass: the output as a loss's parent node."""
        out, cache = self.forward(x)
        return Tensor(out, None, lambda grad: self.backward(cache, grad))

    def forward_raw(self, x: np.ndarray) -> np.ndarray:
        """Inference forward pass: same op order as ``forward``, no cache."""
        h = self._checked_input(x)
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = h @ w + b
            if i != last:
                h = np.tanh(h)
        return h

    def velocity_input(self, t, x) -> np.ndarray:
        """The field's input rows: points ``x`` (n, d) with ``t`` appended.

        ``t`` may be a scalar or a per-row array.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim - 1:
            raise ShapeError(f"expected points (n, {self.in_dim - 1}), got {x.shape}")
        t_col = np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],)).reshape(-1, 1)
        if not np.all(np.isfinite(t_col)):
            raise ValueError("t must be finite")
        return np.concatenate([x, t_col], axis=1)

    def velocity(self, t, x) -> np.ndarray:
        """Evaluate the field at time ``t`` on points ``x`` (inference)."""
        return self.forward_raw(self.velocity_input(t, x))

    def copy(self) -> "Mlp":
        return Mlp(self.widths, theta=self.theta)


def _layer_views(flat: np.ndarray, widths: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    views = []
    offset = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        views.append((w, flat[offset : offset + fan_out]))
        offset += fan_out
    return views


def velocity_mlp(d: int = 2, hidden: tuple[int, ...] = DEFAULT_HIDDEN, seed: int = 0) -> Mlp:
    """Time-conditioned velocity field: input (x, t), output a d-vector."""
    return Mlp([d + 1, *hidden, d], seed=seed)
