"""Thread count of numpy's bundled OpenBLAS, read and set through ctypes.

cflow runs BLAS on ``BLAS_THREADS`` (one) thread. Its matrices are at most
64 wide, where a second BLAS thread costs more in hand-off than it saves
(a 256x64x64 matmul on a loaded 2-vCPU host took 1.56 ms on two threads and
66 us on one), and ``Mlp.forward_raw`` spreads large batches over the CPUs
itself. Importing ``cflow.diffcore`` calls ``set_blas_threads`` once, so
the command line and a library caller run alike. The count is set through
the library, not ``OPENBLAS_NUM_THREADS``, because numpy may already be
imported. Where numpy does not ship its own
OpenBLAS (``numpy.libs/libscipy_openblas*.so``), ``blas_threads`` reports
None and ``set_blas_threads`` does nothing.
"""

from __future__ import annotations

import ctypes
import glob
from pathlib import Path

import numpy as np

__all__ = ["BLAS_THREADS", "blas_threads", "set_blas_threads"]

BLAS_THREADS = 1


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


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if it is not found."""
    get = _openblas_fn("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    if get is None:
        return None
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


def set_blas_threads() -> None:
    """Make numpy's bundled OpenBLAS use ``BLAS_THREADS`` threads, if it is found."""
    set_ = _openblas_fn("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads")
    if set_ is not None:
        set_.argtypes = [ctypes.c_int]
        set_.restype = None
        set_(BLAS_THREADS)
