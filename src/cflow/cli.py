"""Command-line interface.

Subcommands mirror the experiment stages plus a few standalone tools:

    cflow datasets export --name circles --n 1000 --seed 7 --out pts.csv
    cflow train   --config exp.yaml            # learn pipeline
    cflow unlearn --config exp.yaml            # energy-reweighted unlearning
    cflow refit   --config exp.yaml            # OT refit onto the retain set
    cflow sweep   --config exp.yaml            # lambda grid of unlearn runs
    cflow invert  --config exp.yaml            # inverted-energy retraining
    cflow sample  --ckpt ckpt.bin --n 1000 --steps 10 --out samples.csv
    cflow traj    --ckpt ckpt.bin --snapshots 5 --out traj.csv
    cflow energy eval --spec energy.yaml --points pts.csv --out scored.csv
    cflow eval run --ckpt ckpt.bin --dataset circles --classifier clf.bin --out report.csv
    cflow report  --runs runs/exp1 runs/exp2 --out consolidated.csv

Common flags: --seed and --out override the config where they apply.
Exit status: 0 on success, 2 for configuration errors, 3 for missing
dependencies, 4 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import datasets as ds
from . import energy as en
from . import flow
from . import harness
from . import metrics as me
from .config import from_mapping, read_yaml
from .diffcore import AutodiffError, CheckpointError


def _cmd_datasets(args) -> int:
    me.check_count("--n", args.n, me.MAX_ROWS)
    me.check_count("--seed", args.seed, low=0)
    data = ds.generate(args.name, args.n, args.seed)
    ds.export_csv(data, args.out)
    print(f"wrote {len(data)} points to {args.out}")
    return 0


def _run_pipeline(args, pipeline: str) -> int:
    overrides = {k: getattr(args, k) for k in ("seed", "out") if getattr(args, k) is not None}
    spec = harness.load_spec(args.config).with_pipeline(pipeline, **overrides)
    artifact = harness.run(spec)
    artifacts = artifact if isinstance(artifact, list) else [artifact]
    for art in artifacts:
        print(f"stage {art.stage}: artifacts in {art.stage_dir}")
    return 0


def _cmd_sample(args) -> int:
    me.check_count("--n", args.n, me.MAX_ROWS)
    me.check_count("--steps", args.steps)
    me.check_count("--seed", args.seed, low=0)
    model = flow.load_model(args.ckpt)
    pts = model.sample(args.n, n_steps=args.steps, seed=args.seed)
    ds.write_csv(args.out, ["x", "y"], pts)
    print(f"wrote {len(pts)} samples to {args.out}")
    return 0


def _cmd_traj(args) -> int:
    me.check_count("--n", args.n, me.MAX_ROWS)
    me.check_count("--steps", args.steps)
    me.check_count("--snapshots", args.snapshots, args.steps + 1, low=2)
    me.check_count("--seed", args.seed, low=0)
    model = flow.load_model(args.ckpt)
    x0 = model.base_states(args.n, seed=args.seed, n_steps=args.steps)
    snaps = flow.trajectory(model, x0, args.steps, args.snapshots)
    harness.write_traj_csv(args.out, snaps)
    print(f"wrote {len(snaps)} snapshots to {args.out}")
    return 0


def _energy_from_spec(path: str) -> en.EnergySpec:
    """The energy an ``energy eval`` spec file describes; ConfigError if malformed."""
    raw = read_yaml(path)
    if not isinstance(raw, dict) or not raw:
        raise harness.ConfigError(f"{path}: energy spec must be a non-empty mapping")
    sources = {"analytic": "benchmark", "classifier": "classifier_ckpt"}
    fields = {k: v for k, v in raw.items() if k not in sources.values()}
    section = from_mapping(harness.EnergySection, fields, "energy spec")
    key = sources[section.kind]
    if key not in raw:
        raise harness.ConfigError(f"{path}: energy kind {section.kind!r} needs a {key!r} key")
    if section.kind == "analytic":
        if raw["benchmark"] not in ds.BENCHMARKS:
            raise harness.ConfigError(
                f"{path}: unknown benchmark {raw['benchmark']!r}; expected one of {ds.BENCHMARKS}"
            )
        return en.RegionEnergy(raw["benchmark"], section.lam, sharpness=section.sharpness)
    ckpt = raw["classifier_ckpt"]
    if not isinstance(ckpt, str):
        raise harness.ConfigError(f"{path}: classifier_ckpt must be a path string, got {ckpt!r}")
    return en.ClassifierEnergy(en.load_classifier(ckpt), section.lam)


def _cmd_energy_eval(args) -> int:
    spec = _energy_from_spec(args.spec)
    points, _ = ds.load_csv(args.points)
    rows = np.column_stack([points, spec.evaluate(points), spec.weight(points)])
    ds.write_csv(args.out, ["x", "y", "F", "weight"], rows)
    print(f"scored {len(points)} points into {args.out}")
    return 0


def _cmd_eval_run(args) -> int:
    me.check_count("n_eval", args.n, me.MAX_EVAL_N)
    for seed in args.seeds:
        me.check_count("--seeds", seed, low=0)
    model = flow.load_model(args.ckpt)
    clf = en.load_classifier(args.classifier)
    rows = me.evaluate_rows(model, args.dataset, clf, args.n, args.seeds, method=args.method)
    harness.write_report_csv(Path(args.out), rows)
    print(f"wrote {len(rows)} report rows to {args.out}")
    return 0


def _cmd_report(args) -> int:
    md_path = Path(args.out).with_suffix(".md")
    if md_path == Path(args.out):
        raise harness.ConfigError(f"--out {args.out}: the .md table would overwrite the CSV")
    rows = []
    for root in args.runs:
        # a finished stage has its ckpt.bin beside its report.csv; this skips
        # failed reruns and sweep/report.csv, which repeats its arms' rows
        found = sorted(p for p in Path(root).rglob("report.csv") if (p.parent / "ckpt.bin").exists())
        if not found:
            raise harness.HarnessError(f"no finished stage's report.csv under {root}")
        for path in found:
            rows.extend(harness.read_report_csv(path))
    aggregated = harness.report(rows)
    harness.write_consolidated(Path(args.out), aggregated)
    md = harness.format_markdown(aggregated)
    md_path.write_text(md)
    print(md)
    print(f"wrote {args.out} and {md_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default=None, help="override the output path")
        if config:
            p.add_argument("--config", type=str, required=True, help="experiment YAML")

    p = sub.add_parser("datasets", help="benchmark dataset tools")
    dsub = p.add_subparsers(dest="verb", required=True)
    p_exp = dsub.add_parser("export", help="write a labeled sample as CSV")
    p_exp.add_argument("--name", required=True, choices=ds.BENCHMARKS)
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=_cmd_datasets)

    for cmd, pipeline in [
        ("train", "learn"),
        ("unlearn", "unlearn-erfm"),
        ("refit", "refit-ot"),
        ("finetune", "finetune"),
        ("retrain", "retrain"),
        ("sweep", "sweep-lambda"),
        ("invert", "invert"),
    ]:
        p = sub.add_parser(cmd, help=f"run the {pipeline} pipeline")
        add_common(p, config=True)
        p.set_defaults(func=lambda a, pl=pipeline: _run_pipeline(a, pl))

    p = sub.add_parser("sample", help="generate points from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("traj", help="integration snapshots for plotting")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--snapshots", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_traj)

    p = sub.add_parser("energy", help="energy field tools")
    esub = p.add_subparsers(dest="verb", required=True)
    p_ev = esub.add_parser("eval", help="score points with an energy spec")
    p_ev.add_argument("--spec", required=True, help="energy YAML (kind, lam, ...)")
    p_ev.add_argument("--points", required=True, help="CSV with x,y columns")
    p_ev.add_argument("--out", required=True)
    p_ev.set_defaults(func=_cmd_energy_eval)

    p = sub.add_parser("eval", help="metrics tools")
    msub = p.add_subparsers(dest="verb", required=True)
    p_run = msub.add_parser("run", help="evaluate a checkpoint against a benchmark")
    p_run.add_argument("--ckpt", required=True)
    p_run.add_argument("--dataset", required=True, choices=ds.BENCHMARKS)
    p_run.add_argument("--classifier", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--n", type=int, default=1000)
    p_run.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p_run.add_argument("--method", default="eval")
    p_run.set_defaults(func=_cmd_eval_run)

    p = sub.add_parser("report", help="consolidate run reports into one table")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except harness.DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 3
    except (
        harness.HarnessError,
        CheckpointError,
        AutodiffError,
        flow.FullySuppressedBatchError,
        ImportError,  # flow.ot_solver's scipy solver, loaded on first use
        ValueError,
        TypeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
