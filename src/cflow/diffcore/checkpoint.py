"""Binary checkpoint format for Mlp networks.

Layout (all integers little-endian uint32, floats little-endian float64):

    bytes 0..7   magic  b"CFLOWNET"
    uint32       format version (currently 1)
    uint32       kind tag length, then that many UTF-8 bytes
    uint32       number of widths L
    uint32 * L   layer widths
    float64 *    parameter blocks in declaration order:
                 for each layer, W (fan_in * fan_out, row-major) then b
                 (this is ``Mlp.theta`` as it lies in memory)

Round trips are bit-exact: the same bytes are produced for the same
parameters, and loading restores them exactly.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .nn import Mlp, num_parameters

__all__ = [
    "save_mlp",
    "load_mlp",
    "mlp_to_bytes",
    "mlp_from_buffer",
    "read_exact",
    "read_u32",
    "read_text",
    "CheckpointError",
]

MAGIC = b"CFLOWNET"
VERSION = 1


class CheckpointError(Exception):
    """Malformed or mismatched checkpoint data."""


def mlp_to_bytes(model: Mlp, kind: str = "mlp") -> bytes:
    tag = kind.encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    buf.write(struct.pack("<I", len(tag)))
    buf.write(tag)
    buf.write(struct.pack("<I", len(model.widths)))
    buf.write(struct.pack(f"<{len(model.widths)}I", *model.widths))
    buf.write(np.ascontiguousarray(model.theta, dtype="<f8").tobytes())
    return buf.getvalue()


def mlp_from_buffer(buf: io.BufferedIOBase) -> tuple[Mlp, str]:
    """Read one serialized network from a seekable ``buf``; returns
    (model, kind tag). Sizes are checked against the bytes left before
    anything is allocated."""
    magic = buf.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; not a network checkpoint")
    version = read_u32(buf)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    kind = read_text(buf, read_u32(buf), "kind tag")
    n_widths = read_u32(buf)
    widths = list(struct.unpack(f"<{n_widths}I", read_exact(buf, 4 * n_widths)))
    if n_widths < 2 or min(widths) < 1:
        raise CheckpointError(f"invalid layer widths {widths[:8]} (count {n_widths})")
    theta = np.frombuffer(read_exact(buf, 8 * num_parameters(widths)), dtype="<f8")
    if not np.all(np.isfinite(theta)):
        raise CheckpointError("non-finite parameter in checkpoint")
    return Mlp(widths, theta=theta), kind


def save_mlp(model: Mlp, path: str | Path, kind: str = "mlp") -> None:
    Path(path).write_bytes(mlp_to_bytes(model, kind=kind))


def load_mlp(path: str | Path) -> tuple[Mlp, str]:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    with path.open("rb") as fh:
        return mlp_from_buffer(fh)


def read_exact(buf: io.BufferedIOBase, n: int) -> bytes:
    """The next ``n`` bytes of a seekable ``buf``; fails, without reading,
    when fewer remain."""
    pos = buf.tell()
    remaining = buf.seek(0, io.SEEK_END) - pos
    buf.seek(pos)
    if n > remaining:
        raise CheckpointError(f"truncated checkpoint: {n} bytes needed, {remaining} left")
    return buf.read(n)


def read_u32(buf: io.BufferedIOBase) -> int:
    return struct.unpack("<I", read_exact(buf, 4))[0]


def read_text(buf: io.BufferedIOBase, n: int, what: str) -> str:
    try:
        return read_exact(buf, n).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not UTF-8: {exc}") from None
