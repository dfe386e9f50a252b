"""Minimal float64 numerics: MLP with explicit backward, losses, sigmoid, optimizers, checkpoints.

Importing this package (so importing ``cflow``) sets numpy's bundled
OpenBLAS to ``blas.BLAS_THREADS`` (one) thread, for the command line and a
library caller alike; see ``blas``.
"""

from .blas import blas_threads, set_blas_threads
from .checkpoint import CheckpointError, load_mlp, mlp_from_buffer, mlp_to_bytes, save_mlp
from .nn import (DEFAULT_HIDDEN, Mlp, bce_with_logits, inference_pool, inference_threads,
                 row_sq_error_mean, sigmoid, velocity_mlp)
from .optim import Adam, Sgd, StaleGradientError
from .tensor import AutodiffError, NonFiniteError, ShapeError, Tensor

__all__ = [
    "Tensor",
    "AutodiffError",
    "ShapeError",
    "NonFiniteError",
    "Mlp",
    "velocity_mlp",
    "bce_with_logits",
    "row_sq_error_mean",
    "sigmoid",
    "DEFAULT_HIDDEN",
    "Sgd",
    "Adam",
    "StaleGradientError",
    "CheckpointError",
    "save_mlp",
    "load_mlp",
    "mlp_to_bytes",
    "mlp_from_buffer",
    "blas_threads",
    "set_blas_threads",
    "inference_threads",
    "inference_pool",
]

set_blas_threads()
