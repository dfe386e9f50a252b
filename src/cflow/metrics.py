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
# largest evaluation batch: mmd2's n x n temporaries then fit its 256 MiB budget
MAX_EVAL_N = 4096
# largest row count a config or a CLI --n may ask for in one array (data_n,
# source_pool, train.batch): 16x the largest shipped plan (a 65,536-point
# source pool), where one 64-wide float64 activation is 512 MiB
MAX_ROWS = 2**20


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
    return arr


def _kernel_sum(a: np.ndarray, b: np.ndarray, kernel: KernelConfig) -> float:
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :]
    cross = a @ b.T
    cross *= 2.0
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    np.negative(sq, out=sq)
    sq /= 2.0 * kernel.bandwidth**2
    np.exp(sq, out=sq)
    return float(sq.sum())


def mmd2(X: np.ndarray, Y: np.ndarray, kernel: KernelConfig = KernelConfig()) -> float:
    """Biased (V-statistic) squared MMD with every index pair included:

        (1/n^2) sum k(x, x') + (1/m^2) sum k(y, y') - (2/nm) sum k(x, y)

    Symmetric in (X, Y) and non-negative; identical multisets give 0.

    Memory: each kernel sum builds its n x m matrix whole, in place, and at
    most two n x m float64 arrays are alive at once, 16 n m bytes. The
    budget is 256 MiB, which ``MAX_EVAL_N`` (4096) keeps for n = m =
    ``n_eval`` in ``evaluate_model``; summing in blocks instead would change
    the summation order and with it the last bits of the estimate.
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


def forget_rate(classifier: BinaryClassifier, generated: np.ndarray) -> float:
    """Fraction of generated samples classified into the forget class."""
    pts = _as_batch(generated, "generated")
    return float(np.mean(classifier.predict_proba(pts) > 0.5))


def leakage(classifier: BinaryClassifier, generated: np.ndarray) -> float:
    """Mean classifier confidence on the forget class over generated samples."""
    pts = _as_batch(generated, "generated")
    return float(np.mean(classifier.predict_proba(pts)))


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
            if v is not None and v < 0.0:
                raise ValueError(f"{name} must be non-negative, got {v}")

    def to_row(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    @staticmethod
    def header() -> list[str]:
        return [f.name for f in fields(MetricsReport)]


REPORT_COLUMNS = MetricsReport.header()


def check_count(name: str, value: int, high: int | None = None) -> None:
    """ConfigError unless ``value`` is >= 1 and, when ``high`` is given, at
    most ``high``: the check a size makes before anything is read or drawn."""
    if value < 1 or (high is not None and value > high):
        bound = "be >= 1" if high is None else f"lie in [1, {high}]"
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
) -> MetricsReport:
    """Assemble one report row for a trained generator.

    Generated samples (n_eval of them) are scored against a held-out
    labeled sample of the benchmark: MMD against its retain subset,
    accuracy of the classifier on its labeled rows, forget rate and
    leakage on the generated batch. ``n_eval`` may be at most
    ``MAX_EVAL_N`` (see ``mmd2``); a larger one raises ``ConfigError``
    before anything is drawn.
    """
    check_count("n_eval", n_eval, MAX_EVAL_N)
    # held-out evaluation data: same law, seed stream disjoint from training
    retain = generate(dataset_name, 4 * n_eval, seed=[eval_seed, 0x6576616C]).retain_points
    if retain.shape[0] < n_eval:
        raise ValueError("held-out retain subset smaller than n_eval")
    generated = model.sample(n_eval, seed=[eval_seed, 0x67656E])
    real = retain[:n_eval]
    # accuracy is scored on real held-out retained samples (labels all retain)
    acc_labels = np.full(retain.shape[0], RETAIN)
    return MetricsReport(
        dataset=dataset_name,
        method=method,
        seed=eval_seed,
        lam=lam,
        mmd_retain=mmd2(generated, real),
        retention_accuracy=retention_accuracy(classifier, retain, acc_labels),
        forget_rate=forget_rate(classifier, generated),
        leakage=leakage(classifier, generated),
        train_time_s=train_time_s,
        inference_ms_per_sample=inference_ms,
    )


def evaluate_rows(
    model, dataset_name: str, classifier: BinaryClassifier, n_eval: int, eval_seeds, *,
    method: str, lam: float | None = None, train_time_s: float | None = None, timing_seed: int = 0,
) -> list[MetricsReport]:
    """One ``evaluate_model`` row per eval seed, each with the
    ``inference_ms_per_sample`` of one timing draw seeded ``timing_seed``.
    A harness stage and ``cflow eval run`` both score a model this way."""
    inference_ms = measure_inference_ms(model, seed=timing_seed)
    return [
        evaluate_model(model, dataset_name, classifier, n_eval=n_eval, eval_seed=seed, method=method,
                       lam=lam, train_time_s=train_time_s, inference_ms=inference_ms)
        for seed in eval_seeds
    ]
