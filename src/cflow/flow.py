"""Flow-matching objectives, couplings, the training loop, and the sampler.

Training regresses a velocity field v(t, x) onto per-pair straight-line
target velocities x1 - x0 along the interpolation path

    psi_t(x0, x1) = (1 - t) x0 + t x1.

Two objectives are provided:

* ``cfm_loss``   mean squared regression error over the batch.
* ``erfm_loss``  the energy-reweighted form: each pair is weighted by
  w = sigmoid(-lam * F(x1)), which the caller passes in, and the batch
  loss is sum(w * err) / sum(w) (the normalized form used by the training
  loop; ``normalized=False`` gives the plain weighted mean used by the
  gradient-equivalence check).

Either one writes the field's input rows (the conditional sample, then t)
into one new (B, d + 1) array; ``diffcore.row_sq_error_mean`` runs the
field on them and returns a one-node loss handle whose ``backward()``
fills the field's gradient.

Pairs come from a ``Coupling``: either independent draws or an exact
minibatch optimal-transport assignment minimizing total squared distance.
A mode's coupling is fixed by ``train_coupling``: unlearn-erfm pairs
independently and refit-ot needs OT, so a config that asks otherwise is a
``ConfigError``.

``train`` drives the loop for four modes:

* ``learn``         fit a dataset target from a base sampler (also used
                    for the retrain baseline).
* ``finetune``      continue training an existing field on a dataset.
* ``refit-ot``      transport the current model's outputs onto a dataset
                    using OT-coupled pairs.
* ``unlearn-erfm``  draw BOTH endpoints from the source sampler and apply
                    the energy weights, steering mass off high-energy
                    regions without forget samples.

The energy is frozen while a stage unlearns, so a weight depends only on
its point. When the source is a point pool (an ``EmpiricalSampler`` over
the training data or over a cached model-source pool), the weights of the
whole pool are computed once before the first step and each batch looks
its weights up by draw index; other sources are scored batch by batch.
Besides ``loss``, an unlearn-erfm loss trace records two columns per step,
both taken from the weights of the accepted batch:

* ``weight_mean``  mean weight, the acceptance rate of the rejection-
                   sampling view of the reweighting.
* ``ess_frac``     Kish effective sample fraction (sum w)^2 / (B sum w^2):
                   1 when all weights are equal, 1/B when one pair
                   carries all the weight.

Under the OT coupling the assignments are solved ahead of the step. The
main thread draws the x0 and x1 batches of up to ``OT_WINDOW`` coming
steps (never past the last) and submits each step's cost matrix,
assignment and pairing cost to ``diffcore.inference_pool``; step k takes
the result of the oldest job, while scipy solves the next ones on the other
cores with the GIL released. The result is bit-identical to solving each
step in turn: every sampler owns its generator, so a batch drawn early is
the batch drawn on time; ``t`` and the conditional noise still come from
the step stream inside the loop, in the same order; and an assignment is a
pure function of its batches. A job only computes: it never samples and
calls no public entry point, so a tracer that wraps those sees one
thread. The window is not row work, so it submits its jobs itself; when
a step raises, ``diffcore.nn._cancel_and_wait`` cancels the queued jobs
and awaits the running ones before the error leaves ``train``, as
``run_shares`` does. A job's own error reaches the caller with its type.

The OT coupling is the one user of scipy, and it needs one compiled
function: ``linear_sum_assignment``, defined in the extension module
``scipy/optimize/_lsap``. So ``ot_solver`` loads that extension alone, on
first use, found through ``importlib.util.find_spec("scipy")`` (which
imports nothing) and executed without running ``scipy/__init__`` or
``scipy/optimize/__init__``, and keeps the function; nothing else loads
scipy. It is the very function ``scipy.optimize`` exports, so every
assignment is the same. The load takes 0.2 ms and under 0.1 MiB resident,
where ``from scipy.optimize import linear_sum_assignment`` took 0.22 s and
42 MiB after ``import cflow.cli`` (2-vCPU Xeon VM). The extension is not
left in ``sys.modules``, so a later ``import scipy.optimize`` runs as
usual; where the file is not found (another scipy layout), ``ot_solver``
takes the public import instead. The first load runs on the thread that
asked for OT, never in a pool job: ``_ot_steps`` calls ``ot_solver``
before it submits a job.

Sampling integrates the learned ODE with forward Euler over t in [0, 1]
in one loop, ``_share_steps``, for every draw through ``FlowModel.push``
or ``trajectory``. It carries a range of rows through every Euler step
of every chain stage, with the state in the first d columns of the
field's input rows, stepped in place by ``np.multiply(v, dt, out=v)``
then ``np.add(x, v, out=x)``: the same IEEE products and sums as
``integrate``'s ``x + dt * v``. Below ``2 * BLOCK_ROWS`` (2,048) rows the
layers run over the whole range through a plan set up once per stage
(``diffcore.nn._layer_plan``, ``_share_wide``), so a step makes no array
and calls no Python function but the hidden-layer loop. From 2,048 rows
the step runs ``forward_raw``'s chunk loop (``diffcore.nn._pass``) over
one run per pool thread, cut evenly at multiples of 4, with every run's
plan set up once per stage; the output layer goes through the chunks
where ``diffcore.nn``'s rules allow, else one matmul over the range
applies it to a hidden array made once per stage.

Euler moves every point on its own, so a batch is cut once per call by
``diffcore.nn``'s row-cut rules and the loop's results are joined in row
order: into one row share per pool thread where ``row_shares`` allows
(one pool hand-off per call, not one per step), else into the pieces of
``row_pieces`` (8,192 rows for a 64->2 head), which the calling thread
carries one after another, so a draw of any size holds one piece's
activations. ``diffcore.nn.run_shares`` hands out the shares and the
chunk loop's runs alike, so none waits behind queued OT solves. Through the
25+100-step chain of 64x64x64 fields, two 128-row shares (one per thread)
took 23.1 ms against 29.6 ms in per-step field calls (2-vCPU Xeon VM, one
BLAS thread). ``trajectory`` copies the state at its
marks only. The loop calls no name a tracer wraps. ``integrate`` stays
the public reference integrator; nothing in the package calls it.
A model trained on top of another model's outputs keeps that parent in its
chain, so generation always starts from the standard Gaussian root.
``FlowModel.finish`` carries ``base_states`` through the model's own stage
alone, with ``sample``'s bits by the row-range rules above, so a caller
may store the rest (``metrics.evaluate_model``'s ``base``).
"""

from __future__ import annotations

import functools
import importlib.util
import io
import json
import os
import struct
import sys
from collections import deque
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import numpy as np

from .config import ConfigError, check, knob
from .datasets import EmpiricalSampler, GaussianSampler, LabeledDataset
from .diffcore import (Adam, Mlp, Sgd, ShapeError, Tensor, inference_pool, row_sq_error_mean,
                       velocity_mlp)
from .diffcore.checkpoint import (
    CheckpointError,
    mlp_from_buffer,
    mlp_to_bytes,
    read_text,
    read_u32,
)
from .diffcore.nn import (BLOCK_ROWS, _cancel_and_wait, _cuts, _layer_plan, _pass, _run_hidden, row_pieces,
                          row_shares, run_shares)
from .energy import EnergySpec
from .metrics import MAX_ROWS

__all__ = [
    "Coupling",
    "TrainConfig",
    "FlowModel",
    "ModelSampler",
    "FullySuppressedBatchError",
    "interpolate",
    "conditional_sample",
    "target_velocity",
    "cfm_loss",
    "erfm_loss",
    "weight_stats",
    "independent_coupling",
    "ot_coupling",
    "ot_solver",
    "train_coupling",
    "train",
    "integrate",
    "trajectory",
    "save_model",
    "load_model",
]

MODES = ("learn", "unlearn-erfm", "refit-ot", "finetune")
SUPPRESSED_WEIGHT_SUM = 1e-12
MAX_BATCH_RESAMPLES = 100
# OT solves in flight ahead of the training step, 2 * threads + 2 for the
# 2-vCPU host: threads + 1 left the step waiting on its solve more often
# (238-291 refit steps/s against 288-316)
OT_WINDOW = 6

MODEL_MAGIC = b"CFLOWMDL"
MODEL_VERSION = 1


class FullySuppressedBatchError(RuntimeError):
    """Every pair in the batch carries (numerically) zero weight."""


# -- path primitives --------------------------------------------------------


def _pair_arrays(x0, x1) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x0, dtype=np.float64)
    b = np.asarray(x1, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"endpoint shapes differ: {a.shape} vs {b.shape}")
    return a, b


def interpolate(x0, x1, t):
    """psi_t(x0, x1) = (1 - t) x0 + t x1 for t in [0, 1]."""
    a, b = _pair_arrays(x0, x1)
    t = np.asarray(t, dtype=np.float64)
    # NaN fails both comparisons, so this also rejects a non-finite t
    if t.size and not (t.min() >= 0.0 and t.max() <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if t.ndim == 1 and a.ndim == 2:
        t = t[:, None]
    return (1.0 - t) * a + t * b


def conditional_sample(x0, x1, t, sigma: float, rng: np.random.Generator | None = None):
    """Draw from N(psi_t, sigma^2 I); sigma == 0 is exactly the interpolant."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    mid = interpolate(x0, x1, t)
    if sigma == 0.0:
        return mid
    if rng is None:
        raise ValueError("sigma > 0 requires an rng")
    return mid + sigma * rng.standard_normal(mid.shape)


def target_velocity(x0, x1):
    """Per-pair regression target x1 - x0 (independent of t)."""
    a, b = _pair_arrays(x0, x1)
    return b - a


# -- couplings ---------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """Row-aligned endpoint pairs plus how they were matched."""

    x0: np.ndarray
    x1: np.ndarray
    plan: str = "independent"
    cost: float | None = None

    def __post_init__(self):
        if self.x0.shape != self.x1.shape or self.x0.ndim != 2:
            raise ValueError("x0 and x1 must be equal-shape (n, d) arrays")

    def __len__(self) -> int:
        return self.x0.shape[0]


def independent_coupling(x0: np.ndarray, x1: np.ndarray) -> Coupling:
    a, b = _pair_arrays(x0, x1)
    return Coupling(x0=a, x1=b, plan="independent")


def pairing_cost(x0: np.ndarray, x1: np.ndarray) -> float:
    """Total squared distance of the as-given row pairing."""
    a, b = _pair_arrays(x0, x1)
    return float(((a - b) ** 2).sum())


def ot_coupling(x0: np.ndarray, x1: np.ndarray) -> Coupling:
    """Exact minibatch OT plan: the permutation of x1 minimizing total
    squared transport cost (solved as a linear assignment problem).

    Marginals are preserved: x0 keeps its order and x1 is permuted.
    """
    return _ot_coupling(x0, x1)


@functools.cache
def ot_solver():
    """scipy's compiled ``linear_sum_assignment``, loaded on the first call
    (module docstring); an ImportError says that the OT coupling needs it."""
    try:
        spec = _lsap_spec()
        if spec is None:  # another scipy layout, or no scipy: the public import
            from scipy.optimize import linear_sum_assignment
            return linear_sum_assignment
        held = sys.modules.get(spec.name)
        try:  # the extension enters itself in sys.modules; scipy's own import must not find it there
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            if held is None:
                sys.modules.pop(spec.name, None)
            else:
                sys.modules[spec.name] = held
    except ImportError as exc:
        raise ImportError(f"the ot coupling needs scipy: {exc}", name=exc.name) from None
    return module.linear_sum_assignment


def _lsap_spec():
    """The spec of scipy's ``optimize/_lsap`` extension, found without
    importing scipy; None when scipy or that file is not there."""
    scipy = importlib.util.find_spec("scipy")
    for where in (scipy and scipy.submodule_search_locations) or ():
        finder = FileFinder(os.path.join(where, "optimize"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.optimize._lsap")
        if spec is not None:
            return spec
    return None


def _ot_coupling(x0: np.ndarray, x1: np.ndarray) -> Coupling:
    # the solve itself; pool jobs call this, never the public name
    a, b = _pair_arrays(x0, x1)
    if a.ndim != 2:
        raise ValueError("ot_coupling expects (n, d) batches")
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    rows, cols = ot_solver()(sq)
    # recompute the optimal cost directly so it is exact, not the expanded form
    cost = float(((a - b[cols]) ** 2).sum())
    return Coupling(x0=a, x1=b[cols], plan="ot", cost=cost)


def _ot_job(x0: np.ndarray, x1: np.ndarray) -> tuple[Coupling, float]:
    """One step's OT coupling and the cost of its independent pairing."""
    return _ot_coupling(x0, x1), pairing_cost(x0, x1)


def _ot_steps(q0, data_sampler: EmpiricalSampler, batch: int, steps: int):
    """Yield ``(coupling, independent_cost)`` for each of ``steps`` steps,
    solved on the pool up to ``OT_WINDOW`` steps ahead (module docstring).

    Close the generator when the loop stops early: that cancels the queued
    jobs and waits for the running ones.
    """
    ot_solver()  # its first load runs here, on the calling thread, not in a job
    executor = inference_pool().executor
    pending = deque()
    drawn = 0
    try:
        for _ in range(steps):
            while drawn < steps and len(pending) < OT_WINDOW:
                x0 = q0.sample(batch)
                pending.append(executor.submit(_ot_job, x0, data_sampler.sample(batch)))
                drawn += 1
            yield pending.popleft().result()
    finally:
        _cancel_and_wait(pending)


# -- losses -------------------------------------------------------------------


def _field_input(model: Mlp, coupling: Coupling, t, sigma: float, rng) -> np.ndarray:
    """The field's input rows for the batch: the conditional sample at
    ``t`` in the first d columns of one new (B, d + 1) array, ``t`` in the last."""
    n, d = coupling.x0.shape
    if n == 0:
        raise ValueError("empty batch")
    if d != model.in_dim - 1:
        raise ShapeError(f"expected points (n, {model.in_dim - 1}), got {coupling.x0.shape}")
    x = np.empty((n, d + 1))
    x[:, :d] = conditional_sample(coupling.x0, coupling.x1, t, sigma, rng)
    x[:, d] = t
    return x


def cfm_loss(
    model: Mlp,
    coupling: Coupling,
    t: np.ndarray,
    sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Mean squared flow-matching error over the batch (a loss handle)."""
    x = _field_input(model, coupling, t, sigma, rng)
    return row_sq_error_mean(model, x, target_velocity(coupling.x0, coupling.x1))


def erfm_loss(
    model: Mlp,
    coupling: Coupling,
    t: np.ndarray,
    w: np.ndarray,
    sigma: float = 0.0,
    rng: np.random.Generator | None = None,
    normalized: bool = True,
) -> Tensor:
    """Energy-reweighted flow-matching loss with pair weights ``w``.

    ``w`` holds each pair's weight sigmoid(-lam * F(x1)), as
    ``energy.weight(coupling.x1)`` gives it; the weights are constants of
    the batch (no gradient flows through them). The normalized form divides
    by sum(w); when all weights are equal they cancel exactly, so the
    computation falls through to the identical computation ``cfm_loss`` runs.
    """
    if len(coupling) == 0:
        raise ValueError("empty batch")
    if np.shape(w) != (len(coupling),):
        raise ValueError(f"need one weight per pair: shape {np.shape(w)}, {len(coupling)} pairs")
    total = w.sum()
    if total < SUPPRESSED_WEIGHT_SUM:
        raise FullySuppressedBatchError(
            f"batch weight sum {total:.3e} below {SUPPRESSED_WEIGHT_SUM:.0e}; "
            "resample the batch"
        )
    x = _field_input(model, coupling, t, sigma, rng)
    delta = target_velocity(coupling.x0, coupling.x1)
    if normalized and w.max() == w.min():
        # constant energy: the weights cancel, so this is bit-identical to
        # the plain CFM mean on the same batch
        return row_sq_error_mean(model, x, delta)
    return row_sq_error_mean(model, x, delta, w, normalized)


def weight_stats(w: np.ndarray) -> tuple[float, float]:
    """Mean weight and Kish effective sample fraction (sum w)^2 / (B sum w^2)."""
    total = w.sum()
    return float(total / w.size), float(total * total / (w.size * (w * w).sum()))


# -- training -----------------------------------------------------------------


def train_coupling(mode: str, coupling: str | None) -> str:
    """The coupling ``mode`` trains with: ``coupling`` (``train.coupling``)
    or, when it is None, the mode's own. A ConfigError if the two do not fit."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "unlearn-erfm" and coupling == "ot":
        raise ConfigError("train.coupling: ot does not fit unlearn-erfm, which pairs endpoints "
                          "independently from q0")
    if mode == "refit-ot" and coupling == "independent":
        raise ConfigError("train.coupling: independent does not fit refit-ot, which requires the "
                          "ot coupling")
    return coupling or ("ot" if mode == "refit-ot" else "independent")


@dataclass
class TrainConfig:
    """Knobs of the training loop: the ``train:`` section of an experiment
    config. Defaults match the 2D desk-scale runs."""

    steps: int = knob(5000, ge=1)
    batch: int = knob(256, ge=1, le=MAX_ROWS)
    lr: float = knob(1e-3, positive=True)
    lr_decay: str = knob("none", choices=("none", "cosine"))  # cosine: to 1% of lr over the run
    sigma: float = knob(0.0, ge=0)
    coupling: str | None = knob(None, choices=("independent", "ot"))  # None: per mode
    hidden: tuple[int, ...] = knob((64, 64, 64), ge=1)
    optimizer: str = knob("adam", choices=("adam", "sgd"))
    integration_steps: int = knob(10, ge=1)  # stages trained from the gaussian base
    transport_integration_steps: int = knob(50, ge=1)  # stages stacked on a parent model

    def __post_init__(self):
        check(self, "train")


class FlowModel:
    """A trained velocity field plus the generation chain it sits on.

    A model trained on another model's outputs keeps that model as its
    ``parent``; generation draws standard normal points at the root and
    integrates every stage in order, each with its own default step count
    (an explicit ``n_steps`` overrides all stages uniformly).
    """

    def __init__(
        self,
        field: Mlp,
        parent: "FlowModel | None" = None,
        n_steps: int = 10,
        provenance: dict | None = None,
    ):
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self.field = field
        self.parent = parent
        self.n_steps = int(n_steps)
        self.provenance = dict(provenance or {})
        self.loss_trace: dict[str, list[float]] = {}

    @property
    def chain(self) -> list["FlowModel"]:
        return ([] if self.parent is None else self.parent.chain) + [self]

    @property
    def dim(self) -> int:
        return self.field.out_dim

    def push(self, x: np.ndarray, n_steps: int | None = None) -> np.ndarray:
        """Transport points through the whole chain ending at this field
        (the sampler of the module docstring)."""
        chain = self.chain
        steps = [stage.n_steps if n_steps is None else n_steps for stage in chain]
        return _in_shares([(stage.field, n) for stage, n in zip(chain, steps)], x, {steps[-1]})[0]

    def base_states(self, n: int, seed=0, n_steps: int | None = None) -> np.ndarray:
        """Inputs to this model's own stage: Gaussian root run through parents."""
        x = GaussianSampler(seed, dim=self.dim).sample(n)
        if self.parent is not None:
            x = self.parent.push(x, n_steps=n_steps)
        return x

    def finish(self, base: np.ndarray) -> np.ndarray:
        """``base_states`` carried through this model's own stage: ``sample``'s bits."""
        return _in_shares([(self.field, self.n_steps)], base, {self.n_steps})[0]

    def sample(self, n: int, n_steps: int | None = None, seed=0) -> np.ndarray:
        x = GaussianSampler(seed, dim=self.dim).sample(n)
        return self.push(x, n_steps=n_steps)


class ModelSampler:
    """Base sampler backed by a flow model: seeded Gaussian draws pushed
    through the model's full chain."""

    def __init__(self, model: FlowModel, seed=0, n_steps: int | None = None):
        if model is None:
            raise ValueError("model sampler requires a loaded model")
        self.model = model
        self.seed = seed
        self.n_steps = n_steps  # None: each stage uses its own default
        self._rng = np.random.default_rng(seed)

    def sample(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        x = self._rng.standard_normal((n, self.model.dim))
        return self.model.push(x, n_steps=self.n_steps)


def train(
    cfg: TrainConfig,
    q0,
    target,
    *,
    mode: str = "learn",
    seed: int = 0,
    parent: FlowModel | None = None,
    init: Mlp | FlowModel | None = None,
) -> FlowModel:
    """Run the training loop of ``mode`` and return the fitted model.

    ``q0`` supplies x0 batches (and x1 batches in unlearn mode). ``target``
    is a LabeledDataset for the dataset modes and an EnergySpec for
    unlearn-erfm. ``parent`` is the generative stage whose outputs feed
    this field at sampling time; the model then integrates with
    ``cfg.transport_integration_steps``, else ``cfg.integration_steps``.
    ``init`` (a field or model) seeds the weights instead of a fresh Glorot
    draw; ``seed`` seeds that draw and the step stream.

    An unlearn-erfm stage with an ``EmpiricalSampler`` source scores the
    pool once (see the module docstring). A classifier energy scores it
    through ``Mlp.forward_raw`` in chunks of a few hundred rows, bit for
    bit, so a pool of any size holds no activation of all its rows: a
    65,536-point pool's weights traced 3 MiB, against 34 MiB in one pass
    over all rows. The looked-up weights equal those
    of scoring each batch, bit for bit, when the energy scores a row
    independently of the rows around it, as the analytic energies do. A
    classifier energy runs matmuls, and numpy's bundled OpenBLAS on x86-64
    rounds the last ``B mod 4`` of B rows its own way, so there the two
    agree when the batch and the pool sizes are multiples of 4.

    Deterministic: identical (cfg, mode, seed, q0 construction, target)
    reproduce the returned parameters bit-for-bit.
    """
    use_ot = train_coupling(mode, cfg.coupling) == "ot"
    dataset_mode = mode in ("learn", "finetune", "refit-ot")
    if dataset_mode and not isinstance(target, LabeledDataset):
        raise TypeError(f"mode {mode!r} requires a LabeledDataset target")
    if mode == "unlearn-erfm" and not isinstance(target, EnergySpec):
        raise TypeError("mode 'unlearn-erfm' requires an EnergySpec target")
    if mode == "finetune" and init is None:
        raise ValueError("finetune requires an initial model")

    if init is None:
        field = velocity_mlp(d=2, hidden=cfg.hidden, seed=seed)
    else:
        field = (init.field if isinstance(init, FlowModel) else init).copy()

    opt_cls = Adam if cfg.optimizer == "adam" else Sgd
    opt = opt_cls(field, lr=cfg.lr)
    rng = np.random.default_rng([seed, 0x7261696E])  # step stream (t, noise)
    data_sampler = EmpiricalSampler(target.points, seed=[seed, 0x64617461]) if dataset_mode else None
    unlearn = mode == "unlearn-erfm"
    # the energy is frozen, so a pool's weights are computed once
    pool_w = target.weight(q0.points) if unlearn and isinstance(q0, EmpiricalSampler) else None

    # per-step columns in loss.csv order: loss, then the mode's own, added on first use
    trace: dict[str, list[float]] = {"loss": []}

    ot_steps = _ot_steps(q0, data_sampler, cfg.batch, cfg.steps) if use_ot else None
    try:
        for step_idx in range(cfg.steps):
            if cfg.lr_decay == "cosine":
                frac = step_idx / cfg.steps
                opt.lr = cfg.lr * (0.01 + 0.99 * 0.5 * (1.0 + np.cos(np.pi * frac)))
            if unlearn:
                for attempt in range(MAX_BATCH_RESAMPLES + 1):
                    if pool_w is None:
                        both = q0.sample(2 * cfg.batch)
                        w = target.weight(both[cfg.batch :])
                    else:
                        idx = q0.sample_indices(2 * cfg.batch)
                        both, w = q0.points[idx], pool_w[idx[cfg.batch :]]
                    coupling = independent_coupling(both[: cfg.batch], both[cfg.batch :])
                    t = rng.uniform(0.0, 1.0, size=cfg.batch)
                    try:
                        loss = erfm_loss(field, coupling, t, w, sigma=cfg.sigma, rng=rng)
                        break
                    except FullySuppressedBatchError:
                        if attempt == MAX_BATCH_RESAMPLES:
                            raise
                mean, ess = weight_stats(w)
                trace.setdefault("weight_mean", []).append(mean)
                trace.setdefault("ess_frac", []).append(ess)
            else:
                if use_ot:
                    coupling, indep_cost = next(ot_steps)
                    trace.setdefault("ot_cost", []).append(coupling.cost)
                    trace.setdefault("independent_cost", []).append(indep_cost)
                else:
                    coupling = independent_coupling(q0.sample(cfg.batch), data_sampler.sample(cfg.batch))
                t = rng.uniform(0.0, 1.0, size=cfg.batch)
                loss = cfm_loss(field, coupling, t, sigma=cfg.sigma, rng=rng)
            loss.backward()
            opt.step()
            trace["loss"].append(loss.item())
    finally:
        if ot_steps is not None:
            ot_steps.close()

    provenance = {
        "mode": mode,
        "seed": seed,
        "steps": cfg.steps,
        "batch": cfg.batch,
        "lam": target.lam if unlearn else None,
        "target": getattr(target, "name", type(target).__name__),
    }
    n_steps = cfg.integration_steps if parent is None else cfg.transport_integration_steps
    model = FlowModel(field, parent=parent, n_steps=n_steps, provenance=provenance)
    model.loss_trace = trace
    return model


# -- sampling ------------------------------------------------------------------


def integrate(field_fn, x0: np.ndarray, n_steps: int, on_step=None) -> np.ndarray:
    """Integrate dx/dt = field_fn(t, x) over t in [0, 1] from x0 by forward Euler.

    Step k (counted from 1) moves the state from t = (k - 1) * dt to
    t = k * dt with dt = 1 / n_steps. ``on_step(k, x)``, when given, is
    called after each step with the new state; each step makes a new
    array, so a callback may keep ``x``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.array(x0, dtype=np.float64, copy=True)
    dt = 1.0 / n_steps
    for k in range(n_steps):
        x = x + dt * field_fn(k * dt, x)
        if on_step is not None:
            on_step(k + 1, x)
    return x


def _checked_field(field: Mlp, n_steps: int, x) -> Mlp:
    """``field``, once ``x`` holds (n, d) points of that velocity field,
    which takes (x, t) rows (else a ShapeError), and ``n_steps`` >= 1."""
    d = field.out_dim
    if np.ndim(x) != 2 or np.shape(x)[1] != d:
        raise ShapeError(f"expected points (n, {d}), got {np.shape(x)}")
    if field.in_dim != d + 1:
        raise ShapeError(f"a field of {d}-vectors takes rows of {d + 1} columns, not {field.in_dim}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return field


def _in_shares(stages: list[tuple[Mlp, int]], x: np.ndarray, keep) -> list[np.ndarray]:
    """The states ``_share_steps`` keeps of the points ``x`` carried through
    ``stages`` in the row shares of ``row_shares``, else the pieces of
    ``row_pieces`` (one range below two), joined in row order."""
    x = np.asarray(x, dtype=np.float64)
    nets = [_checked_field(field, n_steps, x) for field, n_steps in stages]
    edges = row_shares(nets, len(x))
    if len(edges) > 2:
        parts = run_shares(lambda lo, hi: _share_steps(stages, x[lo:hi], keep), edges)
    elif len(edges := row_pieces(nets, len(x))) > 2:
        parts = [_share_steps(stages, x[lo:hi], keep) for lo, hi in zip(edges, edges[1:])]
    else:
        return _share_steps(stages, x, keep)
    return [np.concatenate(states) for states in zip(*parts)]


def _share_wide(field: Mlp, rows: np.ndarray):
    """``(step, v)``: ``step()`` writes ``field`` over all of ``rows`` into
    ``v`` through one plan set up here, with no chunk and no pool."""
    *plan, (w, bias, v) = _layer_plan(field.layers, len(rows))

    def step() -> None:
        np.matmul(_run_hidden(rows, plan), w, out=v)
        np.add(v, bias, out=v)

    return step, v


def _share_steps(stages: list[tuple[Mlp, int]], x0: np.ndarray, keep) -> list[np.ndarray]:
    """The rows ``x0`` carried through ``stages`` ((field, n_steps) pairs)
    by ``integrate``'s forward Euler, bit for bit, in the one loop of the
    module docstring. Returns a copy of the state after each step of the
    last stage that ``keep`` holds."""
    n, d = x0.shape
    rows = np.empty((n, d + 1))
    state = rows[:, :d]
    state[...] = x0
    kept = []
    for i, (field, n_steps) in enumerate(stages):
        if n >= 2 * BLOCK_ROWS and len(field.layers) > 1:
            v = np.empty((n, d))
            velocity = _pass(field.layers, rows, _cuts(n, inference_pool().threads, 4), v)
        else:
            velocity, v = _share_wide(field, rows)
        marks = keep if i == len(stages) - 1 else ()
        dt = 1.0 / n_steps
        for k in range(n_steps):
            rows[:, d] = k * dt
            velocity()
            # dt * v, then x plus it: integrate's products and sums
            np.multiply(v, dt, out=v)
            np.add(state, v, out=state)
            if k + 1 in marks:
                kept.append(state.copy())
        # free this stage's plans before the next ones are made: two at once
        # raised a refit benchmark run's peak RSS by 2 MiB
        del velocity, v
    return kept


def trajectory(
    model: FlowModel, x0: np.ndarray, n_steps: int, k_snapshots: int
) -> list[tuple[float, np.ndarray]]:
    """States of this model's own stage at k evenly spaced times in [0, 1].

    Returns (t, batch) pairs including both endpoints; the final snapshot
    coincides with running the integrator to completion from x0. The
    states come from the sampler's one loop (module docstring).
    """
    if k_snapshots < 2:
        raise ValueError("need at least the two endpoint snapshots")
    if k_snapshots > n_steps + 1:
        raise ValueError("k_snapshots must be <= n_steps + 1")
    marks = {int(k) for k in np.round(np.linspace(0, n_steps, k_snapshots))}
    # snapshot times are k * dt, not k / n_steps: the two differ in the last bit
    dt = 1.0 / n_steps
    states = _in_shares([(model.field, n_steps)], x0, marks)
    return [(0.0, np.array(x0, dtype=np.float64, copy=True))] + [
        (k * dt, state) for k, state in zip(sorted(marks - {0}), states)]


# -- persistence ----------------------------------------------------------------


def save_model(model: FlowModel, path: str | Path) -> None:
    """Write the chain (root first, each with its step count) and metadata;
    round trips are bit-exact."""
    meta = json.dumps({"provenance": model.provenance}).encode()
    buf = io.BytesIO()
    buf.write(MODEL_MAGIC)
    buf.write(struct.pack("<I", MODEL_VERSION))
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    chain = model.chain
    buf.write(struct.pack("<I", len(chain)))
    for stage in chain:
        buf.write(struct.pack("<I", stage.n_steps))
        buf.write(mlp_to_bytes(stage.field, kind="velocity"))
    Path(path).write_bytes(buf.getvalue())


def load_model(path: str | Path) -> FlowModel:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"model checkpoint not found: {path}")
    buf = io.BytesIO(path.read_bytes())
    if buf.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
        raise CheckpointError(f"{path} is not a flow model checkpoint")
    version = read_u32(buf)
    if version != MODEL_VERSION:
        raise CheckpointError(f"unsupported model checkpoint version {version}")
    try:
        meta = json.loads(read_text(buf, read_u32(buf), "metadata"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable metadata: {exc}") from None
    provenance = meta.get("provenance", {}) if isinstance(meta, dict) else None
    if not isinstance(provenance, dict):
        raise CheckpointError(f"{path}: metadata is not a provenance mapping")
    chain_len = read_u32(buf)
    if chain_len < 1:
        raise CheckpointError("model checkpoint has an empty chain")
    model = None
    for i in range(chain_len):
        stage_steps = read_u32(buf)
        if stage_steps < 1:
            raise CheckpointError(f"stage {i} has a zero step count")
        net, _ = mlp_from_buffer(buf)
        d = net.out_dim if model is None else model.dim
        if (net.in_dim, net.out_dim) != (d + 1, d):
            raise CheckpointError(f"{path}: stage {i} is not a field of {d}-vectors: {net.widths}")
        own = provenance if i == chain_len - 1 else {}
        model = FlowModel(net, parent=model, n_steps=stage_steps, provenance=own)
    if buf.read(1):
        raise CheckpointError(f"{path}: bytes after the last of {chain_len} stages")
    return model
