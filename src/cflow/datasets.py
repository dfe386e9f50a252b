"""2D benchmark distributions with retain/forget partitions, plus base samplers.

Four named benchmarks are supported, each a mixture whose components are
tagged retain or forget at generation time:

* ``circles``       two concentric rings, radii 0.5 (retain) / 1.0 (forget),
                    Gaussian radial noise sigma=0.05, equal mixture.
* ``moons``         two interleaved unit half-circles (second arc offset by
                    (1, -0.5)), 2D noise sigma=0.05, recentred and scaled by
                    4/3 so the pair sits inside [-2, 2]^2; the lower arc is
                    retain.
* ``gaussians6``    six isotropic Gaussians (sigma=0.1) equally spaced on a
                    circle of radius 2, numbered 1..6 counterclockwise from
                    angle 0; odd-numbered clusters are retain.
* ``checkerboard``  4x4 grid of unit cells on [-2, 2]^2, alternating cells
                    occupied; occupied cells in the top row or last column
                    are forget.

The module also owns the benchmark geometry (``forget_margin``,
``region_labels``) so energies and label-purity checks share one source of
truth, and the seeded base samplers used as flow sources.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RETAIN",
    "FORGET",
    "BENCHMARKS",
    "LabeledDataset",
    "generate",
    "region_labels",
    "forget_margin",
    "GaussianSampler",
    "EmpiricalSampler",
    "export_csv",
    "load_csv",
    "write_csv",
]

RETAIN = 0
FORGET = 1
LABEL_NAMES = {RETAIN: "retain", FORGET: "forget"}
BENCHMARKS = ("circles", "moons", "gaussians6", "checkerboard")

# circles geometry
CIRCLES_R_RETAIN = 0.5
CIRCLES_R_FORGET = 1.0
CIRCLES_NOISE = 0.05
CIRCLES_BOUNDARY_R = 0.5 * (CIRCLES_R_RETAIN + CIRCLES_R_FORGET)

# moons geometry (canonical frame before the affine rescale)
MOONS_NOISE = 0.05
MOONS_SHIFT = np.array([0.5, 0.25])
MOONS_SCALE = 4.0 / 3.0
_MOONS_UPPER_CENTER = np.array([0.0, 0.0])   # forget arc, angles [0, pi]
_MOONS_LOWER_CENTER = np.array([1.0, 0.5])   # retain arc, angles [pi, 2pi]

# gaussians6 geometry
GAUSS6_RADIUS = 2.0
GAUSS6_NOISE = 0.1
GAUSS6_ANGLES = 2.0 * np.pi * np.arange(6) / 6.0  # cluster k is index k-1
GAUSS6_CENTERS = GAUSS6_RADIUS * np.stack([np.cos(GAUSS6_ANGLES), np.sin(GAUSS6_ANGLES)], axis=1)
GAUSS6_RETAIN_MASK = np.array([k % 2 == 1 for k in range(1, 7)])  # odd-numbered

# checkerboard geometry: cell (i, j) covers [-2+i, -1+i] x [-2+j, -1+j]
CHECKER_CELLS = [(i, j) for j in range(4) for i in range(4) if (i + j) % 2 == 0]
CHECKER_FORGET = [(i, j) for (i, j) in CHECKER_CELLS if j == 3 or i == 3]
CHECKER_RETAIN = [(i, j) for (i, j) in CHECKER_CELLS if (i, j) not in CHECKER_FORGET]


@dataclass(frozen=True)
class LabeledDataset:
    """n x 2 points with a retain/forget tag per row."""

    name: str
    seed: int
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (n, 2)")
        if self.labels.shape != (self.points.shape[0],):
            raise ValueError("labels must be (n,)")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def retain_points(self) -> np.ndarray:
        return self.points[self.labels == RETAIN]

    @property
    def forget_points(self) -> np.ndarray:
        return self.points[self.labels == FORGET]

    def subset(self, label: int) -> "LabeledDataset":
        mask = self.labels == label
        return LabeledDataset(
            name=f"{self.name}:{LABEL_NAMES[label]}",
            seed=self.seed,
            points=self.points[mask],
            labels=self.labels[mask],
        )


def generate(name: str, n: int, seed: int) -> LabeledDataset:
    """Draw ``n`` labeled points from the named benchmark, bit-reproducibly."""
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {BENCHMARKS}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    points, labels = _GENERATORS[name](n, rng)
    return LabeledDataset(name=name, seed=seed, points=points, labels=labels)


def _gen_circles(n: int, rng: np.random.Generator):
    which = rng.integers(0, 2, size=n)  # 0 inner/retain, 1 outer/forget
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    base_r = np.where(which == 0, CIRCLES_R_RETAIN, CIRCLES_R_FORGET)
    r = base_r + CIRCLES_NOISE * rng.standard_normal(n)
    points = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    labels = np.where(which == 0, RETAIN, FORGET)
    return points, labels


def _gen_moons(n: int, rng: np.random.Generator):
    which = rng.integers(0, 2, size=n)  # 0 upper/forget, 1 lower/retain
    theta = rng.uniform(0.0, np.pi, size=n)
    upper = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    lower = _MOONS_LOWER_CENTER - upper
    raw = np.where(which[:, None] == 0, upper, lower)
    raw = raw + MOONS_NOISE * rng.standard_normal((n, 2))
    points = (raw - MOONS_SHIFT) * MOONS_SCALE
    labels = np.where(which == 0, FORGET, RETAIN)
    return points, labels


def _gen_gaussians6(n: int, rng: np.random.Generator):
    comp = rng.integers(0, 6, size=n)
    points = GAUSS6_CENTERS[comp] + GAUSS6_NOISE * rng.standard_normal((n, 2))
    labels = np.where(GAUSS6_RETAIN_MASK[comp], RETAIN, FORGET)
    return points, labels


def _gen_checkerboard(n: int, rng: np.random.Generator):
    cell_idx = rng.integers(0, len(CHECKER_CELLS), size=n)
    offsets = rng.uniform(0.0, 1.0, size=(n, 2))
    cells = np.array(CHECKER_CELLS, dtype=np.float64)
    points = cells[cell_idx] + offsets - 2.0
    forget_set = set(CHECKER_FORGET)
    labels = np.array(
        [FORGET if CHECKER_CELLS[i] in forget_set else RETAIN for i in cell_idx]
    )
    return points, labels


_GENERATORS = {
    "circles": _gen_circles,
    "moons": _gen_moons,
    "gaussians6": _gen_gaussians6,
    "checkerboard": _gen_checkerboard,
}


# -- region geometry ------------------------------------------------------


def _dist_to_arc(p: np.ndarray, center: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Distance from points to a unit-radius arc spanning angles [lo, hi]."""
    u = p - center
    phi = np.mod(np.arctan2(u[:, 1], u[:, 0]), 2.0 * np.pi)
    on_arc = (phi >= lo) & (phi <= hi)
    radial = np.abs(np.linalg.norm(u, axis=1) - 1.0)
    end_a = center + np.array([np.cos(lo), np.sin(lo)])
    end_b = center + np.array([np.cos(hi), np.sin(hi)])
    d_ends = np.minimum(
        np.linalg.norm(p - end_a, axis=1), np.linalg.norm(p - end_b, axis=1)
    )
    return np.where(on_arc, radial, d_ends)


def _dist_to_cells(p: np.ndarray, cells: list[tuple[int, int]]) -> np.ndarray:
    """Distance from points to a union of unit cells (0 inside)."""
    best = np.full(p.shape[0], np.inf)
    for i, j in cells:
        x0, y0 = -2.0 + i, -2.0 + j
        dx = np.maximum(np.maximum(x0 - p[:, 0], p[:, 0] - (x0 + 1.0)), 0.0)
        dy = np.maximum(np.maximum(y0 - p[:, 1], p[:, 1] - (y0 + 1.0)), 0.0)
        best = np.minimum(best, np.hypot(dx, dy))
    return best


def forget_margin(name: str, points: np.ndarray) -> np.ndarray:
    """Signed distance-like margin: positive on the forget side, negative on retain.

    This is the raw geometric quantity the analytic energies squash; zero on
    the decision boundary between the two regions.
    """
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError("points must be (n, 2)")
    if name == "circles":
        return np.linalg.norm(p, axis=1) - CIRCLES_BOUNDARY_R
    if name == "moons":
        canonical = p / MOONS_SCALE + MOONS_SHIFT
        d_forget = _dist_to_arc(canonical, _MOONS_UPPER_CENTER, 0.0, np.pi)
        d_retain = _dist_to_arc(canonical, _MOONS_LOWER_CENTER, np.pi, 2.0 * np.pi)
        return (d_retain - d_forget) * MOONS_SCALE
    if name == "gaussians6":
        d = np.linalg.norm(p[:, None, :] - GAUSS6_CENTERS[None, :, :], axis=2)
        d_retain = d[:, GAUSS6_RETAIN_MASK].min(axis=1)
        d_forget = d[:, ~GAUSS6_RETAIN_MASK].min(axis=1)
        return d_retain - d_forget
    if name == "checkerboard":
        return _dist_to_cells(p, CHECKER_RETAIN) - _dist_to_cells(p, CHECKER_FORGET)
    raise ValueError(f"unknown benchmark {name!r}")


def region_labels(name: str, points: np.ndarray) -> np.ndarray:
    """Label points by the benchmark's region rule (sign of the margin)."""
    return np.where(forget_margin(name, points) > 0.0, FORGET, RETAIN)


# -- base samplers ---------------------------------------------------------


class GaussianSampler:
    """Standard normal draws in d dimensions from a seeded stream."""

    def __init__(self, seed, dim: int = 2):
        self.dim = dim
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def sample(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._rng.standard_normal((n, self.dim))


class EmpiricalSampler:
    """Uniform-with-replacement draws from a fixed point set."""

    def __init__(self, points: np.ndarray, seed):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must be a non-empty (n, d) array")
        self.points = points
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def sample_indices(self, n: int) -> np.ndarray:
        """Row indices of the next ``n`` draws; ``sample`` takes these rows."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return self._rng.integers(0, self.points.shape[0], size=n)

    def sample(self, n: int) -> np.ndarray:
        return self.points[self.sample_indices(n)]


# -- CSV interchange -------------------------------------------------------


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path: str | Path, header, rows) -> None:
    """Write a header row, then ``rows``; floats (numpy's too) keep full
    float64 precision and None is written as an empty cell."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_cell(v) for v in row] for row in rows)


def export_csv(data: LabeledDataset, path: str | Path) -> None:
    """Write ``x,y,label`` rows with full float64 precision."""
    rows = ((x, y, LABEL_NAMES[int(lbl)]) for (x, y), lbl in zip(data.points, data.labels))
    write_csv(path, ["x", "y", "label"], rows)


def load_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read points (and labels when present) from an ``x,y[,label]`` CSV.

    A header other than ``x,y`` or ``x,y,label`` (cells stripped, any case),
    a malformed row or text that is not UTF-8 raises ``ValueError`` naming
    the file (and line).
    """
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            return _read_points(csv.reader(fh), path)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_points(reader, path) -> tuple[np.ndarray, np.ndarray | None]:
    names = {v: k for k, v in LABEL_NAMES.items()}
    points, labels = [], []
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty CSV, expected an x,y[,label] header")
    if [cell.strip().lower() for cell in header] not in (["x", "y"], ["x", "y", "label"]):
        raise ValueError(f"{path}, line 1: expected an x,y[,label] header, got {','.join(header)!r}")
    width = len(header)
    has_label = width == 3
    for row in reader:
        where = f"{path}, line {reader.line_num}"
        if len(row) < width:
            raise ValueError(f"{where}: expected {width} fields, got {len(row)}")
        try:
            points.append((float(row[0]), float(row[1])))
        except ValueError:
            raise ValueError(f"{where}: coordinates {row[:2]} are not numbers") from None
        if has_label:
            label = row[2].strip().lower()
            if label not in names:
                raise ValueError(f"{where}: unknown label {row[2]!r}, not retain or forget")
            labels.append(names[label])
    pts = np.asarray(points, dtype=np.float64)
    return pts, (np.asarray(labels) if has_label else None)
