"""Run perfbench over workloads and seeds and write the results to a BENCH file.

    python3 tools/bench_json.py --out BENCH_7.json --seeds 701-710 \\
        --checkout parent=../cflow-parent --checkout change=.

Each ``--checkout LABEL=DIR`` names a source tree with ``perfbench/run.py``,
best a git clone, so that its commit is recorded. For every workload and
seed, every checkout runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once, from its own directory, one run at a time. The order of the checkouts
is reversed from one seed to the next, so the runs of one seed form an
alternating pair. After the pairs of a workload, the checkouts run it with
``--trace 1`` for the per-layer metrics, as alternating pairs on the first
``TRACED_SEEDS`` seeds (fewer when fewer are given): one traced run is too
noisy to compare layers by. The file holds, per workload and checkout, the
median and quartiles of every end-to-end metric over the seeds, the
per-seed values, the checkpoint hashes per seed (and whether they agree
across checkouts) and the failed operations, and beside them the same
summary of every per-layer metric over the traced runs, with their hashes
and failed operations. Outside the metrics, ``startup`` keeps what each run
wrote to ``.perfbench_work/<workload>-trace<t>/result.json``: its
``import_s`` and the wall times of its warm-up operations (the ``warmup-``
entries of ``ops``), per seed (null for a run that wrote no such file) and
summarised over the seeds, the warm-up times as their sum per run. They show
work that moves between set-up and a first operation, and no gain is
counted on them. For each end-to-end metric it also counts the seeds on
which the last checkout beat the first, in the direction ``BENCHMARK.json``
gives, and records the last checkout's median gap relative to the first's
median, the first's quartile spread relative to its median, and whether
the gain rule of the choosing-metrics guide (section 8) holds: at least ten
pairs, at least nine tenths of them won, and a gap in the better direction
larger than that spread. Beside that rule, which it leaves as it is, each
gap holds a ``paired`` figure over the seeds' ratios (last / first - 1):
their median and quartiles, by the inclusive method of ``summary``, the
pairs won with ties dropped, and the two-sided sign-test probability of
that win count. Each checkout keeps perfbench's ``environment`` block and
its git commit.

When a run crashes, prints no result or times out, the runs that finished
are still written, beside a ``failed_run`` entry with that run's command,
directory, exit code (null on a timeout) and the tail of its standard
error, and the command exits 1.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

TRACED_SEEDS = 3  # alternating traced pairs per workload


def _seeds(text: str) -> list[int]:
    """``701-710`` or ``7,9,12`` as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"no non-negative seeds in {text!r}")
    return seeds


def _checkout(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    root = Path(path).resolve()
    if not sep or not label or not (root / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR with DIR/perfbench/run.py, got {text!r}")
    return label, root


def _commit(root: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


class RunFailed(RuntimeError):
    """A perfbench run that gave no result; ``record`` says which and why."""

    def __init__(self, record: dict):
        super().__init__(f"{record['command']} in {record['cwd']} exited {record['exit']}: "
                         f"{record['stderr_tail']}")
        self.record = record


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One perfbench run: its metrics, environment, hashes and failures.
    ``RunFailed`` when it crashes, prints no result or times out."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    failed = {"command": " ".join(cmd), "cwd": str(root)}
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=20 * seconds + 900)
    except subprocess.TimeoutExpired as exc:
        # the captured output of a timed-out run is bytes whatever ``text`` says
        stderr = exc.stderr.decode(errors="replace") if isinstance(exc.stderr, bytes) else exc.stderr or ""
        raise RunFailed({**failed, "exit": None, "stderr_tail": stderr[-2000:]}) from None
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RunFailed({**failed, "exit": proc.returncode, "stderr_tail": proc.stderr[-2000:]})
    last = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    shas = [line.split()[2] for line in lines if line.startswith("ckpt_sha256 ")]
    return {
        "seed": seed,
        "exit": proc.returncode,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {k: m["value"] for k, m in last["metrics"].items()},
        "units": {k: m["unit"] for k, m in last["metrics"].items()},
        "environment": env,
        "ckpt_sha256": shas,
        "startup": _startup(root / ".perfbench_work" / f"{workload}-trace{int(trace)}" / "result.json"),
    }


def _startup(path: Path) -> dict | None:
    """A run's ``import_s`` and warm-up operation wall times from its
    ``result.json``, or None when the run wrote none."""
    try:
        result = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    warmup = [wall_s for op, _, wall_s in result["ops"] if op.startswith("warmup-")]
    return {"import_s": result["import_s"], "warmup_s": warmup}


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the per-seed values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def _entry(results: list[dict]) -> dict:
    """The runs of one checkout on one workload as the BENCH file keeps them:
    a summary of every metric over the seeds, with counts and hashes (no
    metrics when a failed run left none), and the ``startup`` figures."""
    units = results[0]["units"] if results else {}
    started = [r["startup"] for r in results if r["startup"] is not None]
    startup = {
        "import_s": summary([s["import_s"] for s in started]) if started else None,
        "warmup_s": summary([sum(s["warmup_s"]) for s in started]) if started else None,
        "by_seed": {str(r["seed"]): r["startup"] for r in results},
    }
    return {
        "metrics": {name: {"unit": units[name], **summary([r["metrics"][name] for r in results])}
                    for name in units},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "nonzero_exits": sum(r["exit"] != 0 for r in results),
        "ckpt_sha256": {str(r["seed"]): r["ckpt_sha256"] for r in results},
        "startup": startup,
    }


def _pairs(seeds: list[int], labels: list[str]):
    """``(seed, label)`` in run order: the checkouts alternate first and last."""
    for i, seed in enumerate(seeds):
        for label in labels if i % 2 == 0 else labels[::-1]:
            yield seed, label


def wins(first: list[dict], last: list[dict], better: dict[str, str]) -> dict[str, str]:
    """Per metric, ``k/n``: seeds on which ``last`` beat ``first`` (ties count for neither)."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        pairs = [(a["metrics"][name], b["metrics"][name]) for a, b in zip(first, last)]
        won = sum(sign * (b - a) > 0 for a, b in pairs)
        out[name] = f"{won}/{len(pairs)}"
    return out


def gaps(first: dict, last: dict, won: dict[str, str], better: dict[str, str]) -> dict[str, dict]:
    """Per metric, from the ``_entry`` summaries of two checkouts and their
    ``wins``: ``last``'s median gap relative to ``first``'s median, signed
    as measured, ``first``'s quartile spread relative to its median, and
    whether the gain rule holds (module docstring)."""
    out = {}
    for name, direction in better.items():
        base = first["metrics"][name]
        median = base["median"]
        gap = (last["metrics"][name]["median"] - median) / median if median else 0.0
        spread = (base["q3"] - base["q1"]) / median if median else 0.0
        k, n = (int(part) for part in won[name].split("/"))
        gain = gap if direction == "higher" else -gap
        out[name] = {"median_gap": gap, "parent_spread": spread,
                     "gain_rule_holds": n >= 10 and 10 * k >= 9 * n and gain > spread}
    return out


def paired(first: list[dict], last: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric, the paired figure (module docstring) of the runs of two
    checkouts on the same seeds, in seed order."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        pairs = [(a["metrics"][name], b["metrics"][name]) for a, b in zip(first, last)]
        ratios = summary([b / a - 1.0 if a else 0.0 for a, b in pairs])
        won = sum(sign * (b - a) > 0 for a, b in pairs)
        lost = sum(sign * (b - a) < 0 for a, b in pairs)
        out[name] = {"ratio_median": ratios["median"], "ratio_q1": ratios["q1"], "ratio_q3": ratios["q3"],
                     "wins": f"{won}/{won + lost}", "sign_test_p": sign_test_p(won, lost)}
    return out


def sign_test_p(won: int, lost: int) -> float:
    """Two-sided sign-test probability of ``won`` wins against ``lost``
    losses (ties dropped) when each pair is a fair coin."""
    n = won + lost
    tail = sum(math.comb(n, i) for i in range(min(won, lost) + 1)) / 2**n
    return min(1.0, 2.0 * tail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--checkout", required=True, action="append", type=_checkout,
                        help="LABEL=DIR; give it once per source tree, base first")
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 701-710 or 7,9")
    parser.add_argument("--workloads", nargs="+", default=["unlearn", "refit", "generate"])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    labels = [label for label, _ in args.checkout]
    if len(set(labels)) != len(labels):
        parser.error("checkout labels must differ")
    roots = dict(args.checkout)
    spec = json.loads((roots[labels[0]] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    traced_seeds = args.seeds[:TRACED_SEEDS]
    runs = {w: {label: [] for label in labels} for w in args.workloads}
    traced = {w: {label: [] for label in labels} for w in args.workloads}
    failed_run = None
    try:
        for workload in args.workloads:
            for seed, label in _pairs(args.seeds, labels):
                result = run_once(roots[label], workload, seed, args.seconds)
                runs[workload][label].append(result)
                shown = " ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} seed={seed} {label}: failed={result['failed']} {shown}", flush=True)
            for seed, label in _pairs(traced_seeds, labels):
                result = run_once(roots[label], workload, seed, args.seconds, trace=True)
                traced[workload][label].append(result)
                print(f"{workload} seed={seed} {label} traced: failed={result['failed']}", flush=True)
    except RunFailed as exc:
        failed_run = exc.record
        print(f"stopped: {exc}", file=sys.stderr, flush=True)

    checkouts = {}
    for label in labels:
        first = next((r for w in args.workloads for r in runs[w][label]), None)
        checkouts[label] = {"commit": _commit(roots[label]),
                            "environment": first["environment"] if first else None}
    workloads = {}
    for workload, by_label in runs.items():
        entry = {}
        for label, results in by_label.items():
            entry[label] = {**_entry(results), "traced": _entry(traced[workload][label])}
        entry["ckpt_sha256_equal"] = all(
            entry[label]["ckpt_sha256"] == entry[labels[0]]["ckpt_sha256"] for label in labels)
        if len(labels) > 1 and all(by_label[label] for label in labels):
            first, last = labels[0], labels[-1]
            won = wins(by_label[first], by_label[last], better)
            entry[f"wins_{last}_over_{first}"] = won
            gap = gaps(entry[first], entry[last], won, better)
            for name, figure in paired(by_label[first], by_label[last], better).items():
                gap[name]["paired"] = figure
            entry[f"gaps_{last}_over_{first}"] = gap
        workloads[workload] = entry

    doc = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "traced_command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 1",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "traced_seeds": traced_seeds,
        "order": "checkouts alternate first and last from one seed to the next, traced runs too",
        "checkouts": checkouts,
        "workloads": workloads,
    }
    if failed_run is not None:
        doc["failed_run"] = failed_run
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if failed_run is None else 1


if __name__ == "__main__":
    sys.exit(main())
