"""Experiment orchestration: configs, staged runs, artifacts, reports.

An experiment is described by one YAML file: ``ExperimentSpec``, with its
``train:`` section a ``flow.TrainConfig`` and its ``energy:`` section an
``EnergySection``. Each checks the type and range of every field when it is
built (unknown keys are rejected), so a bad config fails before any stage
touches its directory. A run produces artifacts under ``<out>/<stage>/``:

    config.yaml   resolved spec echoed verbatim (re-runnable on its own)
    meta.yaml     seed, stage, config hash; BLAS threads, inference threads, CPUs;
                  Python, numpy and scipy versions; the classifier.bin sha256,
                  the prior's ckpt.bin sha256 and, for a model-source pool, its
                  sha256 and drawn or read
    ckpt.bin      model checkpoint
    loss.csv      per-step training loss (plus OT costs when applicable)
    traj.csv      integration snapshots of the trained stage
    report.csv    one metrics row per evaluation seed

Each pipeline but the lambda sweep is one row of ``STAGES`` (its directory,
training mode, prior stage, source and target) and ``run_stage`` runs any
row; the sweep runs the unlearn row once per lambda. Stages form a
dependency chain: unlearning, refitting and fine-tuning need the pretrained
model from the ``learn`` stage; energy inversion needs the unlearned model.
Missing dependencies are reported by naming the stage that must run first.
A stage directory holds one finished stage or nothing: ``_publish`` builds
it in ``<stage>.partial/`` and swaps it in whole; a sweep builds all its
arms and its ``report.csv`` in one ``sweep.partial/``. The stages share
``<out>/classifier/``, published the same way: ``classifier.bin`` and a
``meta.yaml`` with its key (benchmark, seed, ``data_n``, ``ClassifierConfig``
and numpy version), sha256, held-out accuracy and config hash; it is reused
only while key and sha256 match. ``_prior_draws`` keeps the seeded pushes
through a prior chain that stages repeat (model-source pool, trajectory and
eval seed base states) in ``<out>/source_pool/<prior stage dir>.bin``,
``.traj.bin`` and ``.eval<seed>.bin``, read only while size, digest and
key (the prior's ``ckpt.bin`` sha256, seed stream, row and step counts,
numpy version) match, else drawn again and replaced atomically; a stage
that stores its eval base states removes its prior's files of seeds
outside ``eval_seeds``.
All randomness derives from the spec seed, so re-running a config
reproduces its checkpoints bit-exactly.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import importlib.metadata
import os
import platform
import shutil
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
import yaml

from . import datasets as ds
from . import energy as en
from . import flow
from . import metrics as me
from .config import ConfigError, check, from_mapping, knob, read_yaml
from .diffcore import blas_threads, inference_threads, save_mlp

__all__ = [
    "PIPELINES",
    "ExperimentSpec",
    "RunArtifact",
    "HarnessError",
    "ConfigError",
    "DependencyError",
    "STAGES",
    "load_spec",
    "run",
    "run_stage",
    "finished_reports",
    "report",
    "write_report_csv",
    "write_traj_csv",
]

PIPELINES = (
    "learn",
    "unlearn-erfm",
    "refit-ot",
    "finetune",
    "retrain",
    "sweep-lambda",
    "invert",
)

# training plans that reproduce the benchmark numbers at desk scale.
# circles/moons/checkerboard unlearn from the D_full empirical source with
# cosine decay; the six-cluster mixture keeps the model-sampled source and
# a constant lr (its cross-cluster transport degrades under both switches).
# checkerboard asks the most of both fields: the unlearn map must split each
# edge forget cell between two retain cells, and whatever lands on the split
# or comes in as parent blur off the occupied cells stops short in the empty
# cells on the forget side. Its forget rate is set by how sharply the learn
# and unlearn fields are fitted, so it takes a 2e-3 peak lr on every stage
# and as many unlearn steps as learn steps (at 1e-3 and 6000 unlearn steps
# 1.1-1.9% of its samples leaked against a 1% bound)
BENCHMARK_DEFAULTS = {
    "circles": dict(
        train=dict(steps=3000, batch=256, lr_decay="cosine"),
        unlearn_source="data",
        unlearn_steps=5000,
        invert_lam=1000.0,
    ),
    "moons": dict(
        train=dict(steps=5000, batch=256, lr_decay="cosine"),
        unlearn_source="data",
        unlearn_steps=3000,
    ),
    "checkerboard": dict(
        train=dict(steps=12000, batch=512, lr=2e-3, lr_decay="cosine"),
        unlearn_source="data",
    ),
    "gaussians6": dict(train=dict(steps=7500, batch=512), unlearn_source="model"),
}


def benchmark_spec(
    benchmark: str,
    out: str,
    name: str | None = None,
    pipeline: str = "learn",
    seed: int = 0,
    **overrides,
) -> "ExperimentSpec":
    """Experiment spec preloaded with the benchmark's tuned training plan."""
    defaults = {k: v for k, v in BENCHMARK_DEFAULTS[benchmark].items() if k != "train"}
    train = dict(BENCHMARK_DEFAULTS[benchmark]["train"])
    train.update(integration_steps=25, transport_integration_steps=100)
    train.update(overrides.pop("train", {}))
    data = {
        "name": name or f"{benchmark}-run",
        "benchmark": benchmark,
        "pipeline": pipeline,
        "out": out,
        "seed": seed,
        "train": train,
        **defaults,
        **overrides,
    }
    return spec_from_dict(data)

# seed-stream tags give each purpose its own generator, [seed, tag, ...], with
# two overlaps that stay because separating them would change every checkpoint:
# * flow.train seeds its data sampler [seed, 0x64617461], the stream _TAG_DATA
#   gives ds.generate here, so the batch index draws repeat the draws that made
#   the data (circles, seed 0: each of the first 256 indices is below 2,000
#   exactly when the point generated at that position is retain);
# * the velocity field and the classifier both draw their initial weights from
#   default_rng(seed): the field's first 128 first-layer weights are 0.9925
#   times the classifier's 128, the ratio of their Glorot scales.
_TAG_DATA = 0x64617461
_TAG_Q0 = 0x71300000
_TAG_TRAJ = 0x74726A00


class HarnessError(Exception):
    """Base error for orchestration failures."""


class DependencyError(HarnessError):
    """A required prior stage has not produced its checkpoint yet."""


@dataclass
class EnergySection:
    kind: str = knob("analytic", choices=("analytic", "classifier"))
    lam: float = knob(5.0, positive=True)
    sharpness: float = en.DEFAULT_SHARPNESS

    def __post_init__(self):
        check(self, "energy")


@dataclass
class ExperimentSpec:
    name: str
    benchmark: str = knob(choices=ds.BENCHMARKS)
    pipeline: str = knob(choices=PIPELINES)
    out: str
    seed: int = knob(0, ge=0)
    data_n: int = knob(4000, ge=2, le=me.MAX_ROWS)
    train: flow.TrainConfig = field(default_factory=flow.TrainConfig)
    energy: EnergySection = field(default_factory=EnergySection)
    unlearn_source: str = knob("model", choices=("model", "data"))
    unlearn_init: str = knob("pretrained", choices=("pretrained", "fresh"))
    unlearn_steps: int | None = knob(None, ge=1)  # override train.steps for unlearn stages
    invert_lam: float | None = knob(None, positive=True)  # suppression scale for the inversion stage
    source_pool: int = knob(65536, ge=0, le=me.MAX_ROWS)  # model draws cached per run; 0 = per step
    source_steps: int = knob(25, ge=0)  # integration steps when drawing the source pool
    finetune_fraction: float = knob(0.2, positive=True, le=1.0)
    lambda_grid: tuple[float, ...] = knob((0.5, 2.0, 5.0, 1000.0), positive=True)
    eval_seeds: tuple[int, ...] = knob((0, 1, 2), ge=0)
    eval_n: int = knob(1000, ge=1, le=me.MAX_EVAL_N)

    def __post_init__(self):
        check(self)
        if self.pipeline != "sweep-lambda":
            return
        if not self.lambda_grid:
            raise ConfigError("sweep-lambda requires a non-empty lambda_grid")
        arms = {}
        for lam in self.lambda_grid:
            arm = _arm_dir(lam)
            if arm in arms:
                raise ConfigError(f"lambda_grid values {arms[arm]!r} and {lam!r} both run in sweep/{arm}")
            arms[arm] = lam

    def to_dict(self) -> dict:
        return asdict(self)

    def with_pipeline(self, pipeline: str, **overrides) -> "ExperimentSpec":
        """This spec for another pipeline, with top-level fields replaced."""
        return replace(self, pipeline=pipeline, **overrides)

    def config_hash(self) -> str:
        canonical = yaml.safe_dump(_plain(self.to_dict()), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def _plain(value):
    """yaml-safe copy: tuples to lists, numpy scalars to Python numbers."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def spec_from_dict(data: dict) -> ExperimentSpec:
    """The checked spec of a config mapping; ConfigError names the first bad field."""
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a mapping")
    data = dict(data)
    train = from_mapping(flow.TrainConfig, data.pop("train", {}), "train")
    energy = from_mapping(EnergySection, data.pop("energy", {}), "energy")
    return from_mapping(ExperimentSpec, {**data, "train": train, "energy": energy}, "experiment")


def load_spec(path: str | Path) -> ExperimentSpec:
    return spec_from_dict(read_yaml(path))


@dataclass
class RunArtifact:
    stage: str
    stage_dir: Path
    ckpt_path: Path | None
    rows: list[me.MetricsReport]


# -- shared stage plumbing ---------------------------------------------------


def _train_dataset(spec: ExperimentSpec) -> ds.LabeledDataset:
    return ds.generate(spec.benchmark, spec.data_n, seed=[spec.seed, _TAG_DATA])


def _classifier_path(spec: ExperimentSpec) -> Path:
    return Path(spec.out) / "classifier" / "classifier.bin"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ensure_classifier(spec: ExperimentSpec) -> en.BinaryClassifier:
    """The benchmark's retain/forget classifier: the cached one when its
    ``meta.yaml`` records the spec's key and the sha256 of
    ``classifier.bin``, else a newly trained one that replaces the cache."""
    path = _classifier_path(spec)
    meta = path.parent / "meta.yaml"
    cfg = en.ClassifierConfig(seed=spec.seed)
    key = _plain({"benchmark": spec.benchmark, "seed": spec.seed, "data_n": spec.data_n,
                  "classifier": asdict(cfg), "numpy": _dist_version("numpy")})
    if path.exists() and meta.exists():
        try:
            recorded = yaml.safe_load(meta.read_text())
        except (yaml.YAMLError, UnicodeDecodeError):
            recorded = None  # unreadable: train again
        expected = {**key, "classifier_sha256": _sha256(path)}
        if isinstance(recorded, dict) and all(recorded.get(k) == v for k, v in expected.items()):
            return en.load_classifier(path)
    clf = en.train_classifier(_train_dataset(spec), cfg)
    with _publish(path.parent) as partial:
        save_mlp(clf.net, partial / path.name, kind=f"classifier:{spec.benchmark}")
        _write_yaml(partial / meta.name, {
            "stage": "classifier",
            **key,
            "classifier_sha256": _sha256(partial / path.name),
            "holdout_accuracy": clf.holdout_accuracy,
            "config_sha256": spec.config_hash(),
        })
    return clf


def _require_ckpt(spec: ExperimentSpec, pipeline: str) -> Path:
    stage_dir = STAGES[pipeline].dir
    path = Path(spec.out) / stage_dir / "ckpt.bin"
    if not path.exists():
        raise DependencyError(
            f"pipeline {spec.pipeline!r} needs the checkpoint of prior stage "
            f"{stage_dir!r}; run pipeline {pipeline!r} first (expected {path})"
        )
    return path


@functools.cache  # a lookup parses the package's metadata: 4 ms for scipy
def _dist_version(name: str) -> str | None:
    """The installed version of ``name``, read from its package metadata so
    that scipy is not imported for it; None when it is not installed."""
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


_LEFTOVERS = (".partial", ".old")  # a stage being built, a stage being replaced


@contextlib.contextmanager
def _publish(final: Path):
    """Yield an empty ``<final>.partial/`` to build ``final`` in, after
    removing a stale one and a stale ``<final>.old/``. On success the
    directory replaces ``final`` whole; on any exception it is removed."""
    partial, old = (final.with_name(final.name + end) for end in _LEFTOVERS)
    for stale in (partial, old):
        if stale.exists():
            shutil.rmtree(stale)
    partial.mkdir(parents=True)
    try:
        yield partial
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if final.exists():  # POSIX renames a directory only over an empty one
        final.rename(old)
    partial.rename(final)
    shutil.rmtree(old, ignore_errors=True)


def _write_yaml(path: Path, data: dict) -> None:
    with path.open("w") as fh:
        yaml.safe_dump(_plain(data), fh, sort_keys=False)


def write_traj_csv(path: str | Path, snaps: list[tuple[float, np.ndarray]]) -> None:
    """One ``snapshot_index,t,x,y`` row per point of each ``flow.trajectory``
    snapshot, in the bytes ``ds.write_csv`` gives them: ``tolist`` makes
    Python floats, which ``csv`` writes as their ``repr``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snapshot_index", "t", "x", "y"])
        for idx, (t, batch) in enumerate(snaps):
            t = float(t)
            writer.writerows([idx, t, x, y] for x, y in batch.tolist())


def write_report_csv(path: Path, rows: list[me.MetricsReport]) -> None:
    ds.write_csv(path, me.MetricsReport.header(), (row.to_row() for row in rows))


def _report_value(column, text: str):
    """Parse one report cell by its ``MetricsReport`` field annotation; a
    ValueError names the column first, as ``MetricsReport``'s own do."""
    try:
        if column.type == "int":
            return int(text)
        if text == "":
            return None
        return text if column.type == "str" else float(text)
    except ValueError as exc:
        raise ValueError(f"{column.name}: {exc}") from None


def read_report_csv(path: str | Path) -> list[me.MetricsReport]:
    columns = fields(me.MetricsReport)
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise HarnessError(f"{path}: empty report, no header row")
            if header != me.MetricsReport.header():
                raise HarnessError(f"incompatible report schema in {path}: {header}")
            rows = []
            for raw in reader:
                if len(raw) != len(columns):
                    raise HarnessError(f"{path}, line {reader.line_num}: {len(raw)} cells, not {len(columns)}")
                try:
                    rows.append(me.MetricsReport(**{f.name: _report_value(f, v) for f, v in zip(columns, raw)}))
                except ValueError as exc:  # each message starts with its column's name
                    raise HarnessError(f"{path}, line {reader.line_num}, column {exc}") from None
        except (csv.Error, UnicodeDecodeError) as exc:  # say, a field past the limit, or not UTF-8
            raise HarnessError(f"{path}: {exc}") from None
        return rows


def _read_pool(path: Path, key: bytes, shape: tuple[int, int]) -> np.ndarray | None:
    """The pool stored in ``path`` under ``key``; None for a file of another
    size than ``shape`` fills (never read from the file), another key, data
    that fail their digest, or an ``OSError``."""
    with contextlib.suppress(OSError), path.open("rb") as fh:
        if os.fstat(fh.fileno()).st_size == 64 + 8 * shape[0] * shape[1]:
            head, pool = fh.read(64), np.empty(shape, dtype="<f8")
            if fh.readinto(pool) == pool.nbytes and head == key + hashlib.sha256(pool).digest():
                return pool
    return None


def _write_pool(path: Path, key: bytes, pool: np.ndarray) -> None:
    """Replace ``path`` by ``key``, the data digest and ``pool`` through a
    ``.partial`` file of this process. A write that fails (a directory in
    the way, a full disk) only leaves the pool to be drawn again."""
    partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        partial.write_bytes(key + hashlib.sha256(pool).digest() + pool.tobytes())
        os.replace(partial, path)
    except OSError:
        with contextlib.suppress(OSError):
            partial.unlink(missing_ok=True)


def _prior_draws(spec: ExperimentSpec, prior: flow.FlowModel, prior_sha256: str, name: str, seed, n: int,
                 n_steps: int = 0, stream=None) -> tuple[np.ndarray, str]:
    """``n`` Gaussian rows of ``stream`` (default ``seed``, the key's) pushed
    through ``prior`` at ``n_steps`` per stage (0: each stage's own) and
    ``drawn`` or ``read``, from ``<out>/source_pool/<name>.bin``."""
    path = Path(spec.out) / "source_pool" / f"{name}.bin"
    key = hashlib.sha256(repr((prior_sha256, seed, n, n_steps, _dist_version("numpy"))).encode()).digest()
    rows = _read_pool(path, key, (n, prior.dim))
    if rows is not None:
        return rows, "read"
    sampler = flow.ModelSampler(prior, seed=seed if stream is None else stream, n_steps=n_steps or None)
    rows = np.ascontiguousarray(sampler.sample(n), dtype="<f8")
    _write_pool(path, key, rows)
    return rows, "drawn"


def _drop_eval_bases(spec: ExperimentSpec, name: str) -> None:
    """Remove ``<out>/source_pool/<name>.eval<s>.bin`` for every seed ``s``
    outside ``spec.eval_seeds``: no stage of this spec reads them."""
    keep = {f"{name}.eval{s}.bin" for s in spec.eval_seeds}
    for path in (Path(spec.out) / "source_pool").glob(f"{name}.eval*.bin"):
        if path.name not in keep and path.name.removeprefix(f"{name}.eval").removesuffix(".bin").isdigit():
            with contextlib.suppress(OSError):
                path.unlink()


# -- pipelines ----------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """What one pipeline trains: its data, not its code.

    ``prior`` names the pipeline whose checkpoint the stage needs. ``source``
    gives the x0 sampler: ``gaussian`` draws, the prior ``model``'s outputs,
    or ``unlearn_source`` (the spec's choice of model outputs or training
    data). ``target`` is the training ``data``, its ``retain`` subset, the
    spec's ``energy`` or that energy ``inverted``.
    """

    dir: str
    mode: str
    prior: str | None
    source: str
    target: str


STAGES = {
    "learn": Stage("learn", "learn", None, "gaussian", "data"),
    "retrain": Stage("retrain", "learn", None, "gaussian", "retain"),
    "finetune": Stage("finetune", "finetune", "learn", "gaussian", "retain"),
    "refit-ot": Stage("refit", "refit-ot", "learn", "model", "retain"),
    "unlearn-erfm": Stage("unlearn", "unlearn-erfm", "learn", "unlearn_source", "energy"),
    "invert": Stage("invert", "unlearn-erfm", "unlearn-erfm", "model", "inverted"),
}


def run_stage(
    spec: ExperimentSpec, pipeline: str, lam: float | None = None, stage_dir: Path | None = None
) -> RunArtifact:
    """Train, evaluate and write one stage of ``STAGES``.

    A stage with a prior chains onto it (finetune only starts from its
    weights), so ``flow.train`` integrates it with
    ``transport_integration_steps``. Refit, and unlearn under
    ``unlearn_init: fresh``, start from fresh weights; every other stage
    with a prior starts from it. ``lam`` overrides the energy
    scale (the sweep's grid); invert uses ``invert_lam`` when it is set.
    The one classifier is both the classifier energy and the stage's judge.
    The stage's six files are published together (``_publish``).
    """
    stage = STAGES[pipeline]
    flow.train_coupling(stage.mode, spec.train.coupling)  # a ConfigError before the prior is read
    prior_ckpt = _require_ckpt(spec, stage.prior) if stage.prior else None
    prior = flow.load_model(prior_ckpt) if prior_ckpt else None
    prior_sha256 = _sha256(prior_ckpt) if prior else None
    provenance = {"prior_ckpt_sha256": prior_sha256} if prior else {}
    stage_dir = stage_dir or Path(spec.out) / stage.dir

    cfg = spec.train
    if stage.mode == "finetune":
        cfg = replace(cfg, steps=max(1, int(round(cfg.steps * spec.finetune_fraction))))
    if stage.mode == "unlearn-erfm":
        if stage.target == "inverted" and spec.invert_lam is not None:
            lam = spec.invert_lam
        lam = spec.energy.lam if lam is None else lam
        cfg = replace(cfg, steps=spec.unlearn_steps or cfg.steps)
    else:
        lam = None
    clf = ensure_classifier(spec)
    provenance["classifier_sha256"] = _sha256(_classifier_path(spec))
    if stage.target in ("data", "retain"):
        target = _train_dataset(spec)
        target = target.subset(ds.RETAIN) if stage.target == "retain" else target
    elif spec.energy.kind == "analytic":
        target = en.RegionEnergy(spec.benchmark, lam, sharpness=spec.energy.sharpness)
    else:
        target = en.ClassifierEnergy(clf, lam)
    if stage.target == "inverted":
        target = en.InvertedEnergy(target)
    source = spec.unlearn_source if stage.source == "unlearn_source" else stage.source
    if source == "gaussian":
        q0 = ds.GaussianSampler(seed=[spec.seed, _TAG_Q0])
    elif source == "model" and spec.source_pool:
        pool, cache = _prior_draws(spec, prior, prior_sha256, STAGES[stage.prior].dir, spec.seed,
                                   spec.source_pool, spec.source_steps, stream=[spec.seed, _TAG_Q0, 1])
        provenance.update(source_pool_sha256=hashlib.sha256(pool).hexdigest(), source_pool_cache=cache)
        q0 = ds.EmpiricalSampler(pool, seed=[spec.seed, _TAG_Q0, 2])
    elif source == "model":  # source_pool: 0, a draw per step
        q0 = flow.ModelSampler(prior, seed=[spec.seed, _TAG_Q0], n_steps=spec.source_steps or None)
    else:
        q0 = ds.EmpiricalSampler(_train_dataset(spec).points, seed=[spec.seed, _TAG_Q0])
    fresh = stage.mode == "refit-ot" or (pipeline == "unlearn-erfm" and spec.unlearn_init == "fresh")
    init = None if fresh else prior
    parent = None if stage.mode == "finetune" else prior

    start = time.perf_counter()
    model = flow.train(cfg, q0, target, mode=stage.mode, seed=spec.seed, parent=parent, init=init)
    train_time_s = time.perf_counter() - start

    def base_states(use: str, seed, n: int) -> np.ndarray:  # the states entering the model's own stage
        if parent is None:
            return model.base_states(n, seed=seed)
        return _prior_draws(spec, parent, prior_sha256, f"{STAGES[stage.prior].dir}.{use}", seed, n)[0]

    x0 = base_states("traj", [spec.seed, _TAG_TRAJ], 512)
    snaps = flow.trajectory(model, x0, model.n_steps, min(5, model.n_steps + 1))
    bases = [base_states(f"eval{s}", [s, me.EVAL_DRAW_TAG], spec.eval_n) for s in spec.eval_seeds]
    if parent is not None:
        _drop_eval_bases(spec, STAGES[stage.prior].dir)
    rows = me.evaluate_rows(model, spec.benchmark, clf, spec.eval_n, spec.eval_seeds, method=stage.dir,
                            lam=lam, train_time_s=train_time_s, timing_seed=spec.seed, bases=bases)
    trace = model.loss_trace
    loss_rows = ((i, *row) for i, row in enumerate(zip_longest(*trace.values())))
    with _publish(stage_dir) as partial:
        _write_yaml(partial / "config.yaml", spec.to_dict())
        _write_yaml(partial / "meta.yaml", {
            "stage": pipeline,
            "seed": spec.seed,
            "config_sha256": spec.config_hash(),
            "blas_threads": blas_threads(),
            "inference_threads": inference_threads(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": _dist_version("numpy"),
            "scipy": _dist_version("scipy"),
            **provenance,
        })
        ds.write_csv(partial / "loss.csv", ["step", *trace], loss_rows)
        write_traj_csv(partial / "traj.csv", snaps)
        write_report_csv(partial / "report.csv", rows)
        flow.save_model(model, partial / "ckpt.bin")
    return RunArtifact(stage=stage.dir, stage_dir=stage_dir, ckpt_path=stage_dir / "ckpt.bin", rows=rows)


def _arm_dir(lam: float) -> str:
    """The directory under ``sweep/`` of the arm with scale ``lam``."""
    return f"lam_{lam:g}"


def run(spec: ExperimentSpec) -> RunArtifact | list[RunArtifact]:
    """Execute the spec's pipeline; returns its artifact(s).

    ``sweep-lambda`` runs the unlearn stage once per ``lambda_grid`` value into
    ``sweep/lam_<lam>``, their rows into ``sweep/report.csv``, as one ``_publish``.
    """
    if spec.pipeline != "sweep-lambda":
        return run_stage(spec, spec.pipeline)
    sweep = Path(spec.out) / "sweep"
    with _publish(sweep) as partial:
        artifacts = [run_stage(spec, "unlearn-erfm", lam=lam, stage_dir=partial / _arm_dir(lam))
                     for lam in spec.lambda_grid]
        write_report_csv(partial / "report.csv", [row for art in artifacts for row in art.rows])
    return [replace(art, stage_dir=sweep / art.stage_dir.name, ckpt_path=sweep / art.stage_dir.name / "ckpt.bin")
            for art in artifacts]


# -- consolidated reporting ----------------------------------------------------


def finished_reports(root: str | Path) -> list[Path]:
    """Every ``report.csv`` under ``root`` with a ``ckpt.bin`` beside it (so not
    ``sweep/report.csv``, a repeat of its arms) outside ``_publish`` leftovers."""
    return sorted(p for p in Path(root).rglob("report.csv") if (p.parent / "ckpt.bin").exists()
                  and not any(part.endswith(_LEFTOVERS) for part in p.relative_to(root).parts))


def report(rows: list[me.MetricsReport]) -> list[dict]:
    """Aggregate rows by (dataset, method, lam): mean and std per metric."""
    if not rows:
        raise HarnessError("report needs at least one artifact row")
    groups: dict[tuple, list[me.MetricsReport]] = {}
    for row in rows:
        groups.setdefault((row.dataset, row.method, row.lam), []).append(row)
    out = []
    metric_names = me.REPORT_COLUMNS[me.REPORT_COLUMNS.index("lam") + 1 :]  # every metric column
    for (dataset, method, lam), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2] if kv[0][2] is not None else -1.0)
    ):
        entry = {"dataset": dataset, "method": method, "lam": lam, "n_runs": len(members)}
        for name in metric_names:
            values = [getattr(m, name) for m in members if getattr(m, name) is not None]
            entry[f"{name}_mean"] = float(np.mean(values)) if values else None
            entry[f"{name}_std"] = float(np.std(values)) if values else None
        out.append(entry)
    return out


def write_consolidated(path: Path, aggregated: list[dict]) -> None:
    if not aggregated:
        raise HarnessError("nothing to report")
    header = list(aggregated[0])
    ds.write_csv(path, header, ([entry[k] for k in header] for entry in aggregated))


def format_markdown(aggregated: list[dict]) -> str:
    """Dataset x method table with mean +/- std cells."""
    lines = [
        "| dataset | method | lam | mmd_retain | accuracy | forget_rate | leakage | train_time_s |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for e in aggregated:
        def cell(name):
            m, s = e.get(f"{name}_mean"), e.get(f"{name}_std")
            return "-" if m is None else f"{m:.4f} ± {s:.4f}"

        lam = "-" if e["lam"] is None else f"{e['lam']:g}"
        lines.append(
            f"| {e['dataset']} | {e['method']} | {lam} | {cell('mmd_retain')} "
            f"| {cell('retention_accuracy')} | {cell('forget_rate')} | {cell('leakage')} "
            f"| {cell('train_time_s')} |"
        )
    return "\n".join(lines) + "\n"
