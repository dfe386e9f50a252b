"""The three workloads: their specs, set-up, operations and output checks.

Every spec field is written out here instead of coming from
``harness.benchmark_spec`` or ``harness.BENCHMARK_DEFAULTS``, so retuning
the package's own benchmark plans never changes the work measured here.
All stages of one workload share one spec and differ only in ``pipeline``,
the way a user runs the harness.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from cflow import flow, harness, metrics

__all__ = [
    "BENCHMARK",
    "WARMUP_OPS",
    "CheckError",
    "Plan",
    "FULL",
    "Op",
    "experiment",
    "set_up",
    "operations",
    "detail_metrics",
    "GATED",
]

BENCHMARK = "circles"
# operations run before timing starts, so lazy set-up and caches are warm
WARMUP_OPS = {"unlearn": 1, "refit": 1, "generate": 3}
CHAIN_STEPS = [25, 100]  # Euler steps of the learn stage, then of the stage on top
# One round of `generate` requests, shuffled per round by the seed. Every gated
# metric of `generate` is taken per request kind, so the cycle sets only how
# many samples each of them gets. At full size on a 2-vCPU Xeon VM a round is
# 24 x 30 ms + 1 x 2.1 s + 6 x 150 ms: a 20-s run gives the one large request
# per round four or five samples and the others twenty or more.
CYCLE = ("small",) * 24 + ("large",) + ("score",) * 6


class CheckError(Exception):
    """An operation's output failed a correctness check."""


@dataclass(frozen=True)
class Plan:
    """Sizes of one run. ``FULL`` is what the benchmark command measures."""

    setup_reps: int = 5
    data_n: int = 4000
    train_steps: int = 300  # learn and refit stages
    unlearn_steps: int = 400
    chain_unlearn_steps: int = 100  # the second chain stage of `generate`
    batch: int = 256
    source_pool: int = 16384  # parent-chain draws that feed refit
    eval_n: int = 1000
    small_n: int = 256  # activations stay in L2
    large_n: int = 12288  # 12288 x 64 float64 activations are 6 MiB, past a 4 MiB L2


FULL = Plan()


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], dict]  # raises CheckError; returns facts for metrics


@dataclass
class Setup:
    spec: harness.ExperimentSpec
    parent_forget_rate: float
    classifier: object
    model: flow.FlowModel | None  # the loaded chain of `generate`


def experiment(plan: Plan, workload: str, seed: int, out: Path) -> harness.ExperimentSpec:
    """The workload's full spec, every field explicit."""
    unlearn_steps = plan.chain_unlearn_steps if workload == "generate" else plan.unlearn_steps
    return harness.spec_from_dict({
        "name": f"perfbench-{workload}",
        "benchmark": BENCHMARK,
        "pipeline": "learn",
        "out": str(out),
        "seed": seed,
        "data_n": plan.data_n,
        "train": {
            "steps": plan.train_steps,
            "batch": plan.batch,
            "lr": 1e-3,
            "lr_decay": "cosine",
            "sigma": 0.0,
            "coupling": None,
            "hidden": [64, 64, 64],
            "optimizer": "adam",
            "integration_steps": CHAIN_STEPS[0],
            "transport_integration_steps": CHAIN_STEPS[1],
        },
        "energy": {"kind": "classifier", "lam": 5.0, "sharpness": 16.0},
        "unlearn_source": "data",
        "unlearn_init": "pretrained",
        "unlearn_steps": unlearn_steps,
        "invert_lam": None,
        "source_pool": plan.source_pool,
        "source_steps": 25,
        "finetune_fraction": 0.2,
        "lambda_grid": [5.0],
        "eval_seeds": [0],  # one evaluation per stage keeps stages short
        "eval_n": plan.eval_n,
    })


# -- output checks -------------------------------------------------------------


def check_rows(rows, timed: bool = True) -> None:
    """Report rows are finite and in range; ``timed`` rows come from a stage
    and also carry its training and inference times."""
    if not rows:
        raise CheckError("stage returned no report rows")
    for row in rows:
        for name in ("retention_accuracy", "forget_rate", "leakage"):
            value = getattr(row, name)
            if value is None or not 0.0 <= value <= 1.0:
                raise CheckError(f"{name}={value} outside [0, 1]")
        finite = ("mmd_retain", "train_time_s", "inference_ms_per_sample") if timed else ("mmd_retain",)
        for name in finite:
            value = getattr(row, name)
            if value is None or not math.isfinite(value) or value < 0.0:
                raise CheckError(f"{name}={value} not a finite non-negative number")


def check_batch(points, n: int) -> dict:
    """A generated batch is finite and has the requested shape."""
    if not isinstance(points, np.ndarray) or points.shape != (n, 2):
        raise CheckError(f"sample shape {getattr(points, 'shape', None)} != {(n, 2)}")
    if not np.all(np.isfinite(points)):
        raise CheckError("sample holds non-finite points")
    return {"n": n}


def _forget_rate(rows) -> float:
    return statistics.fmean(row.forget_rate for row in rows)


def ot_costs(loss_csv: Path) -> tuple[float, float]:
    """Mean OT-coupled and mean independent pairing cost per step of a refit run."""
    with Path(loss_csv).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (statistics.fmean(float(r["ot_cost"]) for r in rows),
            statistics.fmean(float(r["independent_cost"]) for r in rows))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- set-up and operations -----------------------------------------------------


def set_up(plan: Plan, workload: str, seed: int, out: Path) -> Setup:
    """Data, the parent `learn` checkpoint and the classifier cache; for
    `generate` also the second chain stage, loaded as a model."""
    spec = experiment(plan, workload, seed, out)
    classifier = harness.ensure_classifier(spec)
    learn = harness.run(spec)
    check_rows(learn.rows)
    model = None
    if workload == "generate":
        top = harness.run(spec.with_pipeline("unlearn-erfm"))
        model = flow.load_model(top.ckpt_path)
        steps = [stage.n_steps for stage in model.chain]
        if steps != CHAIN_STEPS:
            raise CheckError(f"chain steps {steps} != {CHAIN_STEPS}")
    return Setup(spec, _forget_rate(learn.rows), classifier, model)


def _stage_ops(setup: Setup, pipeline: str) -> Iterator[Op]:
    spec = setup.spec.with_pipeline(pipeline)
    steps = spec.unlearn_steps if pipeline == "unlearn-erfm" else spec.train.steps
    first: dict[str, str] = {}

    def check(artifact) -> dict:
        check_rows(artifact.rows)
        digest = sha256(artifact.ckpt_path)
        expected = first.setdefault("sha256", digest)
        if digest != expected:
            raise CheckError(f"ckpt.bin sha256 {digest} differs from the first repetition's {expected}")
        facts = {"train_time_s": artifact.rows[0].train_time_s, "steps": steps, "sha256": digest}
        if pipeline == "unlearn-erfm":
            rate = _forget_rate(artifact.rows)
            if not rate < setup.parent_forget_rate:
                raise CheckError(f"forget rate {rate} not below the parent's {setup.parent_forget_rate}")
            facts["forget_rate"] = rate
        else:
            ot, indep = ot_costs(artifact.stage_dir / "loss.csv")
            if not ot < indep:
                raise CheckError(f"OT cost ratio {ot / indep} not below 1")
            facts.update(ot_cost=ot, independent_cost=indep)
        return facts

    while True:
        yield Op("stage", lambda: harness.run(spec), check)


def _generate_ops(setup: Setup, plan: Plan, seed: int) -> Iterator[Op]:
    model, classifier = setup.model, setup.classifier

    def check_score(report) -> dict:
        check_rows([report], timed=False)
        return {}

    def request(kind: str, index: int) -> Op:
        if kind == "score":
            eval_seed = seed * 1_000_003 + index
            return Op(kind, lambda: metrics.evaluate_model(
                model, BENCHMARK, classifier, n_eval=plan.eval_n, eval_seed=eval_seed), check_score)
        n = plan.small_n if kind == "small" else plan.large_n
        return Op(kind, lambda: model.sample(n, seed=[seed, index]), lambda x: check_batch(x, n))

    kinds = ["small", "large", "score"]  # warm-up: one of each
    rng = np.random.default_rng([seed, 0x6D6978])
    index = 0
    while True:
        for kind in kinds:
            yield request(kind, index)
            index += 1
        kinds = [str(kind) for kind in rng.permutation(CYCLE)]


def operations(workload: str, setup: Setup, plan: Plan, seed: int) -> Iterator[Op]:
    """The workload's closed-loop request stream, warm-up operations first."""
    if workload == "unlearn":
        return _stage_ops(setup, "unlearn-erfm")
    if workload == "refit":
        return _stage_ops(setup, "refit-ot")
    return _generate_ops(setup, plan, seed)


# -- metrics -----------------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else _median(values)


def detail_metrics(workload: str, records) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end metrics, by the names users know them."""
    ok = [r for r in records if r.error is None]
    if workload in ("unlearn", "refit"):
        walls = [r.wall_s for r in ok]
        train = [r.facts["train_time_s"] for r in ok]
        return {
            "stage_s": (_median(walls), "s"),
            "train_steps_per_s": (_median([r.facts["steps"] / r.facts["train_time_s"] for r in ok]), "1/s"),
            "outside_train_s": (_median([w - t for w, t in zip(walls, train)]), "s"),
        }
    by_kind = {kind: [r for r in ok if r.kind == kind] for kind in ("small", "large", "score")}
    small_ms = [r.wall_s * 1e3 for r in by_kind["small"]]
    sampled = by_kind["small"] + by_kind["large"]
    sample_time = sum(r.wall_s for r in sampled)
    large_time = sum(r.wall_s for r in by_kind["large"])
    return {
        "sample_small_ms_p50": (_median(small_ms), "ms"),
        "sample_small_ms_p90": (_p90(small_ms), "ms"),
        "sample_large_ms_p50": (_median([r.wall_s * 1e3 for r in by_kind["large"]]), "ms"),
        "sample_large_points_per_s": (
            sum(r.facts["n"] for r in by_kind["large"]) / large_time if large_time else 0.0, "1/s"),
        # depends on CYCLE, so it is reported but not gated
        "samples_per_s": (sum(r.facts["n"] for r in sampled) / sample_time if sample_time else 0.0, "1/s"),
        "score_ms_p50": (_median([r.wall_s * 1e3 for r in by_kind["score"]]), "ms"),
    }


# BENCHMARK.json's end-to-end metrics apply to every workload, so each timing
# metric takes the workload's own: gated name -> (detail name, scale, unit)
GATED = {
    "unlearn": {
        "op_ms_p50": ("stage_s", 1e3, "ms"),
        "work_per_s": ("train_steps_per_s", 1.0, "1/s"),
        "aux_ms_p50": ("outside_train_s", 1e3, "ms"),
    },
    "generate": {
        "op_ms_p50": ("sample_small_ms_p50", 1.0, "ms"),
        "work_per_s": ("sample_large_points_per_s", 1.0, "1/s"),
        "aux_ms_p50": ("score_ms_p50", 1.0, "ms"),
    },
}
GATED["refit"] = GATED["unlearn"]
