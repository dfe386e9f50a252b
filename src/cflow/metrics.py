"""Retention, forgetting, and efficiency metrics plus report assembly.

* Retention: squared maximum mean discrepancy between generated samples
  and held-out retained data (RBF kernel, fixed bandwidth, V-statistic
  with all index pairs including the diagonal), and the accuracy of the
  benchmark classifier on real labeled samples.
* Forgetting: the fraction of generated samples the classifier assigns to
  the forget class (decision threshold 0.5), and the mean classifier
  confidence on that class (leakage).
* Efficiency: wall-clock training time and per-sample generation
  milliseconds, timed on one 1,000-sample draw at 10 integration steps
  per chain stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigError
from .datasets import RETAIN, generate
from .diffcore.nn import run_blocks
from .energy import BinaryClassifier

__all__ = [
    "KernelConfig",
    "MetricsReport",
    "mmd2",
    "retention_accuracy",
    "forget_rate",
    "leakage",
    "measure_inference_ms",
    "evaluate_model",
    "evaluate_rows",
    "REPORT_COLUMNS",
    "MAX_EVAL_N",
    "MAX_ROWS",
    "check_count",
]

INFERENCE_TIMING_SAMPLES = 1000
INFERENCE_TIMING_STEPS = 10
# largest evaluation batch: an n x n product, where mmd2 needs one, fits 128 MiB
MAX_EVAL_N = 4096
# most kernel values in one leaf of a kernel sum, 256 KiB of float64: 2^16 kept
# 0.6 MiB more in a pool thread's heap, over a refit stage's peak RSS
KERNEL_LEAF = 2**15
# largest row count a config or a CLI --n may ask for in one array (data_n,
# source_pool, train.batch), 16x the largest shipped plan: a train.batch that many
# rows holds 512 MiB of 64-wide activations; a classifier scoring holds a few
# 256-row chunks of them beside its 8 MiB of scores, and a draw 4 MiB
MAX_ROWS = 2**20
# seed-stream tags of an evaluation seed's held-out data and generated batch
EVAL_DATA_TAG = 0x6576616C
EVAL_DRAW_TAG = 0x67656E


@dataclass(frozen=True)
class KernelConfig:
    """RBF kernel k(x, y) = exp(-||x - y||^2 / (2 bandwidth^2))."""

    bandwidth: float = 1.0

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")


def _as_batch(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty (n, d) array")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} holds a point that is not finite")
    return arr


def _tree_sum(lo: int, hi: int, leaf) -> float:
    """numpy's pairwise sum of the flat values ``lo:hi`` of a C-contiguous
    array from the sums ``leaf(lo, hi)`` of its nodes of at most
    ``KERNEL_LEAF`` values: numpy halves over 128 values at k//2 - k//2 % 8."""
    if hi - lo <= KERNEL_LEAF:
        return leaf(lo, hi)
    mid = lo + (hi - lo) // 16 * 8
    return _tree_sum(lo, mid, leaf) + _tree_sum(mid, hi, leaf)


def _kernel_sum(a: np.ndarray, b: np.ndarray, kernel: KernelConfig) -> float:
    """Sum of k(a_i, b_j) over every pair, bit for bit one ``sum`` over the
    n x m kernel matrix: a leaf of ``_tree_sum`` builds only the rows that
    cover it (cut at multiples of 4, never one row) and reduces them, one
    run of leaves per pool thread (``run_blocks``) in the same two arrays."""
    na = (a * a).sum(axis=1)
    nb = (b * b).sum(axis=1)
    n, m = a.shape[0], b.shape[0]
    whole = a @ b.T if m % 8 >= 4 and m >= 196 else None  # past diffcore.nn's kernel-product rule

    def add_leaf(lo: int, hi: int) -> float:
        r0, r1 = lo // (4 * m) * 4, min(n, -(-hi // (4 * m)) * 4)
        leaves.append((lo, hi, max(r0 - 4, 0) if r1 - r0 == 1 else r0, r1))
        return 0.0

    def run(first: int, stop: int) -> None:
        cross, dist = np.empty((2, max(r1 - r0 for *_, r0, r1 in leaves[first:stop]), m))
        for i in range(first, stop):
            lo, hi, r0, r1 = leaves[i]
            k = cross[: r1 - r0]  # exp(-max(na + nb - 2 a b^T, 0) / (2 bandwidth^2))
            np.multiply(np.matmul(a[r0:r1], b.T, out=k) if whole is None else whole[r0:r1], 2.0, out=k)
            np.subtract(np.add(na[r0:r1, None], nb[None, :], out=dist[: r1 - r0]), k, out=k)
            np.maximum(k, 0.0, out=k)
            k /= -2.0 * kernel.bandwidth**2  # the bits of negating, then dividing
            np.exp(k, out=k)
            sums[i] = float(np.add.reduce(k.ravel()[lo - r0 * m : hi - r0 * m]))

    leaves = []
    _tree_sum(0, n * m, add_leaf)
    sums = [0.0] * len(leaves)
    run_blocks(run, len(leaves), 1)
    return _tree_sum(0, n * m, lambda lo, hi, in_order=iter(sums): next(in_order))


def mmd2(X: np.ndarray, Y: np.ndarray, kernel: KernelConfig = KernelConfig()) -> float:
    """Biased (V-statistic) squared MMD with every index pair included:

        (1/n^2) sum k(x, x') + (1/m^2) sum k(y, y') - (2/nm) sum k(x, y)

    Symmetric in (X, Y) and non-negative; identical multisets give 0.

    Memory: each pool run of a kernel sum holds two arrays of one leaf, about
    ``KERNEL_LEAF`` values (512 KiB), at any n. Only past the kernel-product
    rule of ``diffcore.nn`` (m % 8 in 4..7 and m >= 196) does it also hold
    the whole n x m product, 8 n m bytes, which ``MAX_EVAL_N`` (4096) keeps
    within 128 MiB for n = m = ``n_eval`` in ``evaluate_model``.
    """
    a = _as_batch(X, "X")
    b = _as_batch(Y, "Y")
    n, m = a.shape[0], b.shape[0]
    value = (
        _kernel_sum(a, a, kernel) / (n * n)
        + _kernel_sum(b, b, kernel) / (m * m)
        - 2.0 * _kernel_sum(a, b, kernel) / (n * m)
    )
    # the estimator is a squared RKHS norm; clip float residue at zero
    return max(value, 0.0)


def retention_accuracy(
    classifier: BinaryClassifier, points: np.ndarray, labels: np.ndarray
) -> float:
    """Fraction of real labeled samples the classifier tags correctly."""
    pts = _as_batch(points, "points")
    labels = np.asarray(labels)
    if labels.shape != (pts.shape[0],):
        raise ValueError("labels must align with points")
    return float(np.mean(classifier.predict(pts) == labels))


def _forget_scores(classifier: BinaryClassifier, generated: np.ndarray) -> tuple[float, float]:
    """``forget_rate`` and ``leakage`` of one generated batch, from one
    classifier pass over it."""
    proba = classifier.predict_proba(_as_batch(generated, "generated"))
    return float(np.mean(proba > 0.5)), float(np.mean(proba))


def forget_rate(classifier: BinaryClassifier, generated: np.ndarray) -> float:
    """Fraction of generated samples classified into the forget class."""
    return _forget_scores(classifier, generated)[0]


def leakage(classifier: BinaryClassifier, generated: np.ndarray) -> float:
    """Mean classifier confidence on the forget class over generated samples."""
    return _forget_scores(classifier, generated)[1]


def measure_inference_ms(
    model,
    n: int = INFERENCE_TIMING_SAMPLES,
    n_steps: int = INFERENCE_TIMING_STEPS,
    seed: int = 0,
) -> float:
    """Per-sample generation time in milliseconds of one draw of ``n``
    samples at ``n_steps`` steps per chain stage.

    The defaults are the report's ``inference_ms_per_sample``: one
    1,000-sample draw at 10 steps per chain stage.
    """
    start = time.perf_counter()
    model.sample(n, n_steps=n_steps, seed=seed)
    return (time.perf_counter() - start) * 1000.0 / n


@dataclass
class MetricsReport:
    """One experiment run's metric row; None marks an explicitly absent value."""

    dataset: str
    method: str
    seed: int
    lam: float | None
    mmd_retain: float | None
    retention_accuracy: float | None
    forget_rate: float | None
    leakage: float | None
    train_time_s: float | None
    inference_ms_per_sample: float | None

    def __post_init__(self):
        for name in ("retention_accuracy", "forget_rate", "leakage"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("mmd_retain", "train_time_s", "inference_ms_per_sample"):
            v = getattr(self, name)
            if v is not None and not v >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {v}")

    def to_row(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    @staticmethod
    def header() -> list[str]:
        return [f.name for f in fields(MetricsReport)]


REPORT_COLUMNS = MetricsReport.header()


def check_count(name: str, value: int, high: int | None = None, low: int = 1) -> None:
    """ConfigError unless ``value`` is >= ``low`` and, when ``high`` is
    given, at most ``high``: the check a count makes before anything is
    read or drawn."""
    if value < low or (high is not None and value > high):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ConfigError(f"{name} must {bound}, got {value}")


def evaluate_model(
    model,
    dataset_name: str,
    classifier: BinaryClassifier,
    n_eval: int = 1000,
    eval_seed: int = 0,
    method: str = "",
    lam: float | None = None,
    train_time_s: float | None = None,
    inference_ms: float | None = None,
    base: np.ndarray | None = None,
) -> MetricsReport:
    """Assemble one report row for a trained generator.

    Generated samples (n_eval of them) are scored against a held-out
    labeled sample of the benchmark: MMD against its retain subset,
    accuracy of the classifier on its labeled rows, forget rate and
    leakage on the generated batch. ``n_eval`` may be at most
    ``MAX_EVAL_N`` (see ``mmd2``); a larger one raises ``ConfigError``
    before anything is drawn. Only the model's own stage is integrated, from
    ``base`` (default ``model.base_states(n_eval, seed=[eval_seed,
    EVAL_DRAW_TAG])``): the bits of ``model.sample`` on that stream.
    """
    check_count("n_eval", n_eval, MAX_EVAL_N)
    # held-out evaluation data: same law, seed stream disjoint from training
    retain = generate(dataset_name, 4 * n_eval, seed=[eval_seed, EVAL_DATA_TAG]).retain_points
    if retain.shape[0] < n_eval:
        raise ValueError("held-out retain subset smaller than n_eval")
    if base is None:
        base = model.base_states(n_eval, seed=[eval_seed, EVAL_DRAW_TAG])
    generated = model.finish(base)
    real = retain[:n_eval]
    # accuracy is scored on real held-out retained samples (labels all retain)
    acc_labels = np.full(retain.shape[0], RETAIN)
    rate, leak = _forget_scores(classifier, generated)
    return MetricsReport(
        dataset=dataset_name,
        method=method,
        seed=eval_seed,
        lam=lam,
        mmd_retain=mmd2(generated, real),
        retention_accuracy=retention_accuracy(classifier, retain, acc_labels),
        forget_rate=rate,
        leakage=leak,
        train_time_s=train_time_s,
        inference_ms_per_sample=inference_ms,
    )


def evaluate_rows(
    model, dataset_name: str, classifier: BinaryClassifier, n_eval: int, eval_seeds, *,
    method: str, lam: float | None = None, train_time_s: float | None = None, timing_seed: int = 0,
    bases=None,
) -> list[MetricsReport]:
    """One ``evaluate_model`` row per eval seed, each with the
    ``inference_ms_per_sample`` of one timing draw seeded ``timing_seed``
    and, when ``bases`` is given, its seed's ``base`` from it.
    A harness stage and ``cflow eval run`` both score a model this way."""
    inference_ms = measure_inference_ms(model, seed=timing_seed)
    return [
        evaluate_model(model, dataset_name, classifier, n_eval=n_eval, eval_seed=seed, method=method,
                       lam=lam, train_time_s=train_time_s, inference_ms=inference_ms, base=base)
        for seed, base in zip(eval_seeds, bases or [None] * len(eval_seeds))
    ]
