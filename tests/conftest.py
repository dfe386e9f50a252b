"""Shared test helpers: finite-difference, MMD, kernel-sum, forward-pass
and velocity oracles, gradient flattening, a recording inference pool, and
two energies that only tests use.

The suite runs numpy's BLAS on one thread, as the ``cflow`` command does.
Results are bit-identical at any thread count, but two test processes on a
small machine each spinning up a thread per core slow one another down many
times over. The environment variables cover a numpy imported after this
file, in this process or a spawned worker; a plugin may already have
imported it, so the thread count of numpy's bundled OpenBLAS is also set
directly, which importing ``cflow.diffcore`` does.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from cflow import energy as _energy  # noqa: E402
from cflow.diffcore import blas_threads, nn  # noqa: E402
from cflow.metrics import KernelConfig  # noqa: E402


def pytest_report_header(config):
    threads = blas_threads()
    return f"blas threads: {'unknown' if threads is None else threads} (set 1)"


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


def mmd2_reference(X, Y, kernel: KernelConfig = KernelConfig()) -> float:
    """Naive double-loop evaluation of the ``metrics.mmd2`` estimator (test oracle)."""
    a = np.asarray(X, dtype=np.float64)
    b = np.asarray(Y, dtype=np.float64)

    def k(u, v):
        d = u - v
        return np.exp(-(d @ d) / (2.0 * kernel.bandwidth**2))

    term_xx = sum(k(u, v) for u in a for v in a) / (len(a) * len(a))
    term_yy = sum(k(u, v) for u in b for v in b) / (len(b) * len(b))
    term_xy = sum(k(u, v) for u in a for v in b) / (len(a) * len(b))
    return term_xx + term_yy - 2.0 * term_xy


def kernel_sum_reference(a, b, kernel: KernelConfig = KernelConfig()) -> float:
    """``metrics._kernel_sum`` in its two-array form, whole-matrix passes
    over the sum of squared norms and the doubled product (test oracle)."""
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    cross = a @ b.T
    cross *= 2.0
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    np.negative(sq, out=sq)
    sq /= 2.0 * kernel.bandwidth**2
    np.exp(sq, out=sq)
    return float(sq.sum())


def mmd2_from_sums(xx: float, yy: float, xy: float, n: int, m: int) -> float:
    """``metrics.mmd2`` of an n-point X and an m-point Y from their three
    kernel sums, in its order of operations (test oracle)."""
    return max(xx / (n * n) + yy / (m * m) - 2.0 * xy / (n * m), 0.0)


def serial_forward(model, x):
    """``Mlp.forward_raw``'s single-thread loop over all rows (test oracle)."""
    h = np.asarray(x, dtype=np.float64)
    last = len(model.layers) - 1
    for i, (w, b) in enumerate(model.layers):
        h = h @ w
        h += b
        if i != last:
            np.tanh(h, out=h)
    return h


def velocity(model, t, x):
    """A ``FlowModel``'s own field at time ``t`` (a scalar or one per row) on
    points ``x`` (n, d), by the inference forward pass (test oracle)."""
    x = np.asarray(x, dtype=np.float64)
    return model.field.forward_raw(np.column_stack([x, np.broadcast_to(t, len(x))]))


class RecordingExecutor(ThreadPoolExecutor):
    """A thread pool that keeps every future it hands out."""

    def __init__(self, threads):
        super().__init__(threads)
        self.jobs = []

    def submit(self, fn, *args, **kwargs):
        job = super().submit(fn, *args, **kwargs)
        self.jobs.append(job)
        return job


def use_pool(monkeypatch, threads):
    """Make the inference pool a fresh ``RecordingExecutor`` of ``threads``
    threads; the caller shuts it down."""
    executor = RecordingExecutor(threads)
    monkeypatch.setattr(nn, "_pool", nn._Pool(executor, threads))
    return executor


def flatten_grads(model) -> np.ndarray:
    """Copy of the model's flat gradient, which is then marked consumed."""
    model.grad_fresh = False
    return model.grad.copy()


class ConstantEnergy(_energy.EnergySpec):
    """F(x) == value everywhere; makes ERFM degenerate to plain CFM."""

    def __init__(self, value: float, lam: float = 1.0):
        super().__init__(lam)
        self.value = float(value)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.full(self._points(x).shape[0], self.value)


class CallableEnergy(_energy.EnergySpec):
    """Wrap an arbitrary per-row function as an energy."""

    def __init__(self, fn, lam: float):
        super().__init__(lam)
        self.fn = fn

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(self._points(x)), dtype=np.float64)


# ``cflow.energy``'s public names and the two energies above under one name,
# for the pinned cases that reach every energy as ``en.<name>``
energy = SimpleNamespace(**{name: getattr(_energy, name) for name in _energy.__all__},
                         ConstantEnergy=ConstantEnergy, CallableEnergy=CallableEnergy)
