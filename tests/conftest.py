"""Shared test helpers: finite-difference oracle and gradient flattening.

The suite runs numpy's BLAS on one thread. Results are bit-identical at any
thread count, but two test processes on a small machine each spinning up a
thread per core slow one another down many times over. The environment
variables cover a numpy imported after this file; a plugin may already have
imported it, so the thread count of numpy's bundled OpenBLAS is also set
directly.
"""

import ctypes
import glob
import os
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402


def _openblas_fn(*names):
    """The first of ``names`` that numpy's bundled OpenBLAS exports, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


_set_threads = _openblas_fn("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")
if _set_threads is not None:
    _set_threads.argtypes = [ctypes.c_int]
    _set_threads.restype = None
    _set_threads(BLAS_THREADS)


def pytest_report_header(config):
    get = _openblas_fn("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    if get is None:
        return f"blas threads: unknown (set {BLAS_THREADS})"
    get.argtypes = []
    get.restype = ctypes.c_int
    return f"blas threads: {get()} (set {BLAS_THREADS})"


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
