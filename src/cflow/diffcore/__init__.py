"""Minimal float64 numerics: MLP with explicit backward, optimizers, checkpoints."""

from .checkpoint import CheckpointError, load_mlp, mlp_from_buffer, mlp_to_bytes, save_mlp
from .nn import DEFAULT_HIDDEN, Mlp, bce_with_logits, velocity_mlp
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
    "DEFAULT_HIDDEN",
    "Sgd",
    "Adam",
    "StaleGradientError",
    "CheckpointError",
    "save_mlp",
    "load_mlp",
    "mlp_to_bytes",
    "mlp_from_buffer",
]
