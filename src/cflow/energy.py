"""Scalar energy fields and the sigmoid suppression weight.

An energy scores points by their association with content to forget:
high energy means "suppress", low energy means "keep". Training pairs are
then downweighted by

    w(x) = sigmoid(-lam * F(x)),

so w is near 1 on low-energy (retain) regions and near 0 on high-energy
(forget) regions, crossing 0.5 exactly where F vanishes.

Variants: smooth analytic region energies for the 2D benchmarks (a scaled
tanh of the geometric margin, bounded so extreme lam values stay
well-conditioned), classifier-derived energies (the logit score of a
trained retain/forget classifier, read from a checkpoint by
``load_classifier``), pointwise negation (``InvertedEnergy``), constants,
and arbitrary callables for composition and testing.

Sign note: the weight uses the convention that F is HIGH on forget
regions, so a classifier confident in "forget" (C near 1) drives the
weight toward 0. That matches the closed form

    w = (1 - C)^lam / ((1 - C)^lam + C^lam).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import datasets
from .config import ConfigError
from .diffcore import Mlp, Adam, bce_with_logits, load_mlp

__all__ = [
    "EnergySpec",
    "RegionEnergy",
    "ClassifierEnergy",
    "InvertedEnergy",
    "ConstantEnergy",
    "CallableEnergy",
    "BinaryClassifier",
    "ClassifierConfig",
    "sigmoid",
    "train_classifier",
    "load_classifier",
]

ENERGY_SATURATION = 5.0  # |F| cap for analytic region energies
DEFAULT_SHARPNESS = 16.0  # margin-to-energy slope at the region boundary
CLASSIFIER_PROB_CLAMP = 1e-6


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class EnergySpec:
    """A scalar field F(x) with a suppression scale lam > 0."""

    def __init__(self, lam: float):
        if not lam > 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.lam = float(lam)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def weight(self, x: np.ndarray) -> np.ndarray:
        """Per-row suppression weight sigmoid(-lam * F(x)), in (0, 1)."""
        return sigmoid(-self.lam * self.evaluate(x))

    def _points(self, x) -> np.ndarray:
        p = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if not np.all(np.isfinite(p)):
            raise ValueError("energy evaluation requires finite points")
        return p


class RegionEnergy(EnergySpec):
    """Smooth signed indicator of a benchmark's forget region.

    F(x) = S * tanh(sharpness * margin(x) / S) with S = ``ENERGY_SATURATION``,
    where the margin is positive on the forget side; |F| stays below S so
    sigmoid(-lam*F) is well-conditioned even at lam = 1000.
    """

    def __init__(self, benchmark: str, lam: float, sharpness: float = DEFAULT_SHARPNESS):
        super().__init__(lam)
        if benchmark not in datasets.BENCHMARKS:
            raise ValueError(f"unknown benchmark {benchmark!r}")
        self.benchmark = benchmark
        self.sharpness = float(sharpness)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        margin = datasets.forget_margin(self.benchmark, self._points(x))
        return ENERGY_SATURATION * np.tanh(self.sharpness * margin / ENERGY_SATURATION)


class ClassifierEnergy(EnergySpec):
    """Logit score of a trained forget-vs-retain classifier.

    F(x) = logit(C(x)) with C clamped to [eps, 1-eps] (eps =
    ``CLASSIFIER_PROB_CLAMP``), so F is finite and sigmoid(-lam*F) equals
    (1-C)^lam / ((1-C)^lam + C^lam).
    """

    def __init__(self, classifier: "BinaryClassifier", lam: float):
        super().__init__(lam)
        self.classifier = classifier

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        c = self.classifier.predict_proba(self._points(x))
        return np.log(c) - np.log1p(-c)


class InvertedEnergy(EnergySpec):
    """Pointwise negation: evaluate(x) == -inner.evaluate(x), same lam."""

    def __init__(self, inner: EnergySpec):
        super().__init__(inner.lam)
        self.inner = inner

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return -self.inner.evaluate(x)


class ConstantEnergy(EnergySpec):
    """F(x) == value everywhere; makes ERFM degenerate to plain CFM."""

    def __init__(self, value: float, lam: float = 1.0):
        super().__init__(lam)
        self.value = float(value)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.full(self._points(x).shape[0], self.value)


class CallableEnergy(EnergySpec):
    """Wrap an arbitrary per-row function as an energy."""

    def __init__(self, fn, lam: float):
        super().__init__(lam)
        self.fn = fn

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(self._points(x)), dtype=np.float64)


# -- binary classifier ------------------------------------------------------


@dataclass
class ClassifierConfig:
    steps: int = 2000
    batch: int = 128
    lr: float = 1e-3
    hidden: tuple[int, ...] = (64, 64, 64)
    holdout_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be >= 1")
        if not 0.0 < self.holdout_frac < 1.0:
            raise ValueError("holdout_frac must be in (0, 1)")


@dataclass
class BinaryClassifier:
    """MLP with a scalar logit head estimating P(x is forget-class | x)."""

    net: Mlp
    holdout_accuracy: float | None = None

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.net.forward_raw(np.asarray(x, dtype=np.float64)).reshape(-1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """C(x), clamped strictly inside (0, 1)."""
        return np.clip(sigmoid(self.logits(x)), CLASSIFIER_PROB_CLAMP, 1.0 - CLASSIFIER_PROB_CLAMP)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.predict_proba(x) > 0.5, datasets.FORGET, datasets.RETAIN)


def train_classifier(
    data: datasets.LabeledDataset, cfg: ClassifierConfig | None = None
) -> BinaryClassifier:
    """Fit a retain/forget classifier on a labeled benchmark sample.

    Deterministic for a fixed (data, cfg.seed); rejects single-class data.
    The held-out accuracy over ``holdout_frac`` of the rows is recorded on
    the returned classifier.
    """
    cfg = cfg or ClassifierConfig()
    labels = data.labels
    if len(np.unique(labels)) < 2:
        raise ValueError("classifier training needs both retain and forget labels")

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(data))
    n_holdout = max(1, int(round(cfg.holdout_frac * len(data))))
    holdout_idx, train_idx = perm[:n_holdout], perm[n_holdout:]
    x_train, y_train = data.points[train_idx], labels[train_idx].astype(np.float64)
    x_hold, y_hold = data.points[holdout_idx], labels[holdout_idx]

    net = Mlp([2, *cfg.hidden, 1], seed=cfg.seed)
    opt = Adam(net, lr=cfg.lr)
    n_train = x_train.shape[0]
    for _ in range(cfg.steps):
        idx = rng.integers(0, n_train, size=cfg.batch)
        loss = bce_with_logits(net(x_train[idx]), y_train[idx])
        loss.backward()
        opt.step()

    clf = BinaryClassifier(net=net)
    clf.holdout_accuracy = float(np.mean(clf.predict(x_hold) == y_hold))
    return clf


def load_classifier(path: str | Path) -> BinaryClassifier:
    """The classifier saved at ``path``; ConfigError unless the checkpoint's
    kind tag starts with ``classifier:``."""
    net, kind = load_mlp(path)
    if not kind.startswith("classifier:"):
        raise ConfigError(f"{path}: checkpoint kind {kind!r} is not a classifier")
    return BinaryClassifier(net=net)
