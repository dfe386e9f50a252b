"""Experiment orchestration: configs, staged runs, artifacts, reports.

An experiment is described by one YAML file (strict keys: unknown fields
are rejected) and produces artifacts under ``<out>/<stage>/``:

    config.yaml   resolved spec echoed verbatim (re-runnable on its own)
    meta.yaml     seed, stage, config hash
    ckpt.bin      model checkpoint (classifier stages: classifier.bin)
    loss.csv      per-step training loss (plus OT costs when applicable)
    traj.csv      integration snapshots of the trained stage
    report.csv    one metrics row per evaluation seed

Stages form a dependency chain: unlearning, refitting and fine-tuning
need the pretrained model from the ``learn`` stage; energy inversion
needs the unlearned model. Missing dependencies are reported by naming
the stage that must run first. All randomness derives from the spec seed,
so re-running a config reproduces its checkpoints bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import datasets as ds
from . import energy as en
from . import flow
from . import metrics as me
from .diffcore import load_mlp, save_mlp

__all__ = [
    "PIPELINES",
    "ExperimentSpec",
    "RunArtifact",
    "HarnessError",
    "ConfigError",
    "DependencyError",
    "load_spec",
    "run",
    "invert_experiment",
    "report",
    "write_report_csv",
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

STAGE_DIRS = {
    "learn": "learn",
    "unlearn-erfm": "unlearn",
    "refit-ot": "refit",
    "finetune": "finetune",
    "retrain": "retrain",
    "invert": "invert",
}

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

# seed-stream tags keep the per-purpose generators disjoint
_TAG_DATA = 0x64617461
_TAG_Q0 = 0x71300000
_TAG_TRAJ = 0x74726A00


class HarnessError(Exception):
    """Base error for orchestration failures."""


class ConfigError(HarnessError):
    """Malformed or inconsistent experiment configuration."""


class DependencyError(HarnessError):
    """A required prior stage has not produced its checkpoint yet."""


@dataclass
class TrainSection:
    steps: int = 5000
    batch: int = 256
    lr: float = 1e-3
    lr_decay: str = "none"
    sigma: float = 0.0
    coupling: str | None = None
    hidden: tuple[int, ...] = (64, 64, 64)
    optimizer: str = "adam"
    integration_steps: int = 10  # stages trained from the gaussian base
    transport_integration_steps: int = 50  # stages stacked on a parent model


@dataclass
class EnergySection:
    kind: str = "analytic"  # analytic | classifier
    lam: float = 5.0
    sharpness: float = en.DEFAULT_SHARPNESS

    def __post_init__(self):
        if self.kind not in ("analytic", "classifier"):
            raise ConfigError(f"energy.kind must be analytic|classifier, got {self.kind!r}")
        if not self.lam > 0:
            raise ConfigError("energy.lam must be positive")
        if not isinstance(self.sharpness, (int, float)) or not np.isfinite(self.sharpness):
            raise ConfigError(f"energy.sharpness must be a finite number, got {self.sharpness!r}")


@dataclass
class ExperimentSpec:
    name: str
    benchmark: str
    pipeline: str
    out: str
    seed: int = 0
    data_n: int = 4000
    train: TrainSection = field(default_factory=TrainSection)
    energy: EnergySection = field(default_factory=EnergySection)
    unlearn_source: str = "model"  # model | data
    unlearn_init: str = "pretrained"  # pretrained | fresh
    unlearn_steps: int | None = None  # override train.steps for unlearn stages
    invert_lam: float | None = None  # suppression scale for the inversion stage
    source_pool: int = 65536  # model-sampler draws cached per run; 0 = per-step draws
    source_steps: int = 25  # integration steps when drawing the source pool
    finetune_fraction: float = 0.2
    lambda_grid: tuple[float, ...] = (0.5, 2.0, 5.0, 1000.0)
    eval_seeds: tuple[int, ...] = (0, 1, 2)
    eval_n: int = 1000

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}, got {self.pipeline!r}")
        if self.benchmark not in ds.BENCHMARKS:
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        if self.unlearn_source not in ("model", "data"):
            raise ConfigError("unlearn_source must be 'model' or 'data'")
        if self.unlearn_init not in ("pretrained", "fresh"):
            raise ConfigError("unlearn_init must be 'pretrained' or 'fresh'")
        if self.unlearn_steps is not None and self.unlearn_steps < 1:
            raise ConfigError("unlearn_steps must be >= 1")
        if not 0.0 < self.finetune_fraction <= 1.0:
            raise ConfigError("finetune_fraction must be in (0, 1]")
        if self.pipeline == "sweep-lambda" and not self.lambda_grid:
            raise ConfigError("sweep-lambda requires a non-empty lambda_grid")
        if self.data_n < 2 or self.eval_n < 1:
            raise ConfigError("data_n and eval_n must be positive")
        if self.source_pool < 0:
            raise ConfigError("source_pool must be >= 0")
        self.lambda_grid = tuple(float(v) for v in self.lambda_grid)
        self.eval_seeds = tuple(int(s) for s in self.eval_seeds)

    def to_dict(self) -> dict:
        return asdict(self)

    def with_pipeline(self, pipeline: str, **overrides) -> "ExperimentSpec":
        data = self.to_dict()
        data["pipeline"] = pipeline
        for key, value in overrides.items():
            keys = key.split(".")
            node = data
            for k in keys[:-1]:
                node = node[k]
            node[keys[-1]] = value
        return spec_from_dict(data)

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


def _build_section(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a mapping")
    allowed = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("hidden", "lambda_grid", "eval_seeds"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def spec_from_dict(data: dict) -> ExperimentSpec:
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a mapping")
    data = dict(data)
    train = _build_section(TrainSection, data.pop("train", {}), "train")
    energy = _build_section(EnergySection, data.pop("energy", {}), "energy")
    spec = _build_section(ExperimentSpec, {**data, "train": train, "energy": energy}, "experiment")
    return spec


def load_spec(path: str | Path) -> ExperimentSpec:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with path.open() as fh:
        data = yaml.safe_load(fh)
    return spec_from_dict(data)


@dataclass
class RunArtifact:
    spec: ExperimentSpec
    stage: str
    stage_dir: Path
    ckpt_path: Path | None
    rows: list[me.MetricsReport]
    config_hash: str


# -- shared stage plumbing ---------------------------------------------------


def _train_dataset(spec: ExperimentSpec) -> ds.LabeledDataset:
    return ds.generate(spec.benchmark, spec.data_n, seed=[spec.seed, _TAG_DATA])


def _train_config(spec: ExperimentSpec, mode: str, **overrides) -> flow.TrainConfig:
    t = spec.train
    kwargs = dict(
        mode=mode,
        steps=t.steps,
        batch=t.batch,
        lr=t.lr,
        lr_decay=t.lr_decay,
        lam=spec.energy.lam,
        sigma=t.sigma,
        coupling=t.coupling,
        seed=spec.seed,
        n_steps=t.integration_steps,
        hidden=t.hidden,
        optimizer=t.optimizer,
    )
    kwargs.update(overrides)
    try:
        return flow.TrainConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _classifier_path(spec: ExperimentSpec) -> Path:
    return Path(spec.out) / "classifier" / "classifier.bin"


def ensure_classifier(spec: ExperimentSpec) -> en.BinaryClassifier:
    """Train (or reload) the benchmark's retain/forget classifier."""
    path = _classifier_path(spec)
    if path.exists():
        net, kind = load_mlp(path, expect_kind=f"classifier:{spec.benchmark}")
        return en.BinaryClassifier(net=net, trained_on=spec.benchmark, seed=spec.seed, trained=True)
    data = _train_dataset(spec)
    clf = en.train_classifier(data, en.ClassifierConfig(seed=spec.seed))
    path.parent.mkdir(parents=True, exist_ok=True)
    save_mlp(clf.net, path, kind=f"classifier:{spec.benchmark}")
    _write_yaml(path.parent / "meta.yaml", {
        "stage": "classifier",
        "benchmark": spec.benchmark,
        "seed": spec.seed,
        "holdout_accuracy": clf.holdout_accuracy,
        "config_sha256": spec.config_hash(),
    })
    return clf


def _require_ckpt(spec: ExperimentSpec, stage: str) -> Path:
    path = Path(spec.out) / STAGE_DIRS[stage] / "ckpt.bin"
    if not path.exists():
        raise DependencyError(
            f"pipeline {spec.pipeline!r} needs the checkpoint of prior stage "
            f"{STAGE_DIRS[stage]!r}; run pipeline {stage!r} first (expected {path})"
        )
    return path


def _write_yaml(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        yaml.safe_dump(_plain(data), fh, sort_keys=False)


def _write_loss_csv(path: Path, trace: dict[str, list[float]]) -> None:
    keys = list(trace)
    n = len(trace["loss"])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *keys])
        for i in range(n):
            writer.writerow([i, *[repr(trace[k][i]) if i < len(trace[k]) else "" for k in keys]])


def _write_traj_csv(path: Path, model: flow.FlowModel, spec: ExperimentSpec, n_plot: int = 512) -> None:
    x0 = model.base_states(n_plot, seed=[spec.seed, _TAG_TRAJ])
    k = min(5, model.n_steps + 1)
    snaps = flow.trajectory(model, x0, model.n_steps, k)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snapshot_index", "t", "x", "y"])
        for idx, (t, batch) in enumerate(snaps):
            for x, y in batch:
                writer.writerow([idx, repr(float(t)), repr(float(x)), repr(float(y))])


def write_report_csv(path: Path, rows: list[me.MetricsReport]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(me.MetricsReport.header())
        for row in rows:
            writer.writerow(["" if v is None else v for v in row.to_row()])


def read_report_csv(path: str | Path) -> list[me.MetricsReport]:
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != me.MetricsReport.header():
            raise HarnessError(f"incompatible report schema in {path}: {header}")
        for raw in reader:
            vals = [None if v == "" else v for v in raw]
            rows.append(me.MetricsReport(
                dataset=vals[0],
                method=vals[1],
                seed=int(vals[2]),
                lam=None if vals[3] is None else float(vals[3]),
                mmd_retain=None if vals[4] is None else float(vals[4]),
                retention_accuracy=None if vals[5] is None else float(vals[5]),
                forget_rate=None if vals[6] is None else float(vals[6]),
                leakage=None if vals[7] is None else float(vals[7]),
                train_time_s=None if vals[8] is None else float(vals[8]),
                inference_ms_per_sample=None if vals[9] is None else float(vals[9]),
            ))
    return rows


def _evaluate_stage(
    spec: ExperimentSpec,
    model: flow.FlowModel,
    method: str,
    lam: float | None,
    train_time_s: float,
) -> list[me.MetricsReport]:
    clf = ensure_classifier(spec)
    inference_ms, _ = me.measure_inference_ms(model, seed=spec.seed, repeats=2)
    return [
        me.evaluate_model(
            model,
            spec.benchmark,
            clf,
            n_eval=spec.eval_n,
            eval_seed=es,
            method=method,
            lam=lam,
            train_time_s=train_time_s,
            inference_ms=inference_ms,
        )
        for es in spec.eval_seeds
    ]


def _finalize_stage(
    spec: ExperimentSpec,
    stage: str,
    model: flow.FlowModel,
    train_time_s: float,
    lam: float | None,
    stage_dir: Path | None = None,
) -> RunArtifact:
    stage_dir = stage_dir or Path(spec.out) / STAGE_DIRS[stage]
    stage_dir.mkdir(parents=True, exist_ok=True)
    ckpt = stage_dir / "ckpt.bin"
    flow.save_model(model, ckpt)
    _write_yaml(stage_dir / "config.yaml", spec.to_dict())
    _write_yaml(stage_dir / "meta.yaml", {
        "stage": stage,
        "seed": spec.seed,
        "config_sha256": spec.config_hash(),
    })
    _write_loss_csv(stage_dir / "loss.csv", model.loss_trace)
    _write_traj_csv(stage_dir / "traj.csv", model, spec)
    rows = _evaluate_stage(spec, model, STAGE_DIRS[stage], lam, train_time_s)
    write_report_csv(stage_dir / "report.csv", rows)
    return RunArtifact(
        spec=spec,
        stage=STAGE_DIRS[stage],
        stage_dir=stage_dir,
        ckpt_path=ckpt,
        rows=rows,
        config_hash=spec.config_hash(),
    )


def _model_source(spec: ExperimentSpec, model: flow.FlowModel):
    """Sampler over a model's outputs; a cached pool keeps steps cheap."""
    steps = spec.source_steps or None
    if spec.source_pool:
        sampler = flow.ModelSampler(model, seed=[spec.seed, _TAG_Q0, 1], n_steps=steps)
        return ds.EmpiricalSampler(sampler.sample(spec.source_pool), seed=[spec.seed, _TAG_Q0, 2])
    return flow.ModelSampler(model, seed=[spec.seed, _TAG_Q0], n_steps=steps)


def _build_energy(spec: ExperimentSpec, lam: float | None = None) -> en.EnergySpec:
    lam = spec.energy.lam if lam is None else lam
    if spec.energy.kind == "analytic":
        return en.RegionEnergy(spec.benchmark, lam, sharpness=spec.energy.sharpness)
    clf = ensure_classifier(spec)
    return en.from_classifier(clf, lam)


# -- pipelines ----------------------------------------------------------------


def _run_learn(spec: ExperimentSpec, stage: str = "learn", retain_only: bool = False) -> RunArtifact:
    data = _train_dataset(spec)
    target = data.subset(ds.RETAIN) if retain_only else data
    cfg = _train_config(spec, "learn")
    q0 = ds.GaussianSampler(seed=[spec.seed, _TAG_Q0])
    start = time.perf_counter()
    model = flow.train(cfg, q0, target)
    return _finalize_stage(spec, stage, model, time.perf_counter() - start, lam=None)


def _run_retrain(spec: ExperimentSpec) -> RunArtifact:
    return _run_learn(spec, stage="retrain", retain_only=True)


def _run_finetune(spec: ExperimentSpec) -> RunArtifact:
    pretrained = flow.load_model(_require_ckpt(spec, "learn"))
    data = _train_dataset(spec).subset(ds.RETAIN)
    steps = max(1, int(round(spec.train.steps * spec.finetune_fraction)))
    cfg = _train_config(spec, "finetune", steps=steps)
    q0 = ds.GaussianSampler(seed=[spec.seed, _TAG_Q0])
    start = time.perf_counter()
    model = flow.train(cfg, q0, data, init=pretrained)
    return _finalize_stage(spec, "finetune", model, time.perf_counter() - start, lam=None)


def _run_refit(spec: ExperimentSpec) -> RunArtifact:
    pretrained = flow.load_model(_require_ckpt(spec, "learn"))
    data = _train_dataset(spec).subset(ds.RETAIN)
    cfg = _train_config(spec, "refit-ot", n_steps=spec.train.transport_integration_steps)
    q0 = _model_source(spec, pretrained)
    start = time.perf_counter()
    model = flow.train(cfg, q0, data, parent=pretrained)
    return _finalize_stage(spec, "refit-ot", model, time.perf_counter() - start, lam=None)


def _run_unlearn(
    spec: ExperimentSpec, lam: float | None = None, stage_dir: Path | None = None
) -> RunArtifact:
    pretrained = flow.load_model(_require_ckpt(spec, "learn"))
    lam = spec.energy.lam if lam is None else lam
    energy = _build_energy(spec, lam)
    cfg = _train_config(
        spec,
        "unlearn-erfm",
        lam=lam,
        n_steps=spec.train.transport_integration_steps,
        steps=spec.unlearn_steps or spec.train.steps,
    )
    if spec.unlearn_source == "model":
        q0 = _model_source(spec, pretrained)
    else:
        q0 = ds.EmpiricalSampler(_train_dataset(spec).points, seed=[spec.seed, _TAG_Q0])
    init = pretrained if spec.unlearn_init == "pretrained" else None
    start = time.perf_counter()
    model = flow.train(cfg, q0, energy, parent=pretrained, init=init)
    return _finalize_stage(
        spec, "unlearn-erfm", model, time.perf_counter() - start, lam=lam, stage_dir=stage_dir
    )


def _run_sweep(spec: ExperimentSpec) -> list[RunArtifact]:
    artifacts = []
    for lam in spec.lambda_grid:
        stage_dir = Path(spec.out) / "sweep" / f"lam_{lam:g}"
        artifacts.append(_run_unlearn(spec, lam=lam, stage_dir=stage_dir))
    rows = [row for art in artifacts for row in art.rows]
    write_report_csv(Path(spec.out) / "sweep" / "report.csv", rows)
    return artifacts


def invert_experiment(spec: ExperimentSpec) -> RunArtifact:
    """Invert the unlearn stage's energy and retrain from its own samples."""
    unlearn_ckpt = Path(spec.out) / STAGE_DIRS["unlearn-erfm"] / "ckpt.bin"
    if not unlearn_ckpt.exists():
        raise DependencyError(
            "invert needs the checkpoint of prior stage 'unlearn'; "
            f"run pipeline 'unlearn-erfm' first (expected {unlearn_ckpt})"
        )
    unlearned = flow.load_model(unlearn_ckpt)
    lam = spec.invert_lam if spec.invert_lam is not None else spec.energy.lam
    energy = en.invert(_build_energy(spec, lam))
    cfg = _train_config(
        spec,
        "unlearn-erfm",
        lam=lam,
        n_steps=spec.train.transport_integration_steps,
        steps=spec.unlearn_steps or spec.train.steps,
    )
    q0 = _model_source(spec, unlearned)
    start = time.perf_counter()
    model = flow.train(cfg, q0, energy, parent=unlearned, init=unlearned)
    artifact = _finalize_stage(spec, "invert", model, time.perf_counter() - start, lam=lam)
    return artifact


def run(spec: ExperimentSpec) -> RunArtifact | list[RunArtifact]:
    """Execute the spec's pipeline; returns its artifact(s)."""
    Path(spec.out).mkdir(parents=True, exist_ok=True)
    if spec.pipeline == "learn":
        return _run_learn(spec)
    if spec.pipeline == "retrain":
        return _run_retrain(spec)
    if spec.pipeline == "finetune":
        return _run_finetune(spec)
    if spec.pipeline == "refit-ot":
        return _run_refit(spec)
    if spec.pipeline == "unlearn-erfm":
        return _run_unlearn(spec)
    if spec.pipeline == "sweep-lambda":
        return _run_sweep(spec)
    if spec.pipeline == "invert":
        return invert_experiment(spec)
    raise ConfigError(f"unhandled pipeline {spec.pipeline!r}")


# -- consolidated reporting ----------------------------------------------------


def report(rows: list[me.MetricsReport]) -> list[dict]:
    """Aggregate rows by (dataset, method, lam): mean and std per metric."""
    if not rows:
        raise HarnessError("report needs at least one artifact row")
    groups: dict[tuple, list[me.MetricsReport]] = {}
    for row in rows:
        groups.setdefault((row.dataset, row.method, row.lam), []).append(row)
    out = []
    metric_names = [
        "mmd_retain",
        "retention_accuracy",
        "forget_rate",
        "leakage",
        "train_time_s",
        "inference_ms_per_sample",
    ]
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
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = list(aggregated[0])
        writer.writerow(header)
        for entry in aggregated:
            writer.writerow(["" if entry[k] is None else entry[k] for k in header])


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
