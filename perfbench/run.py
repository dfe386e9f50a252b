"""Seeded end-to-end and per-layer benchmark of cflow.

    python3 perfbench/run.py --workload unlearn --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory. One process, one BLAS thread, one client in a closed
loop: each operation starts when the previous one has returned. With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it measures half the time untraced and half with every layer
entry point wrapped, and reports the per-layer metrics. The last line of
standard output is the JSON result; the lines before it name every metric
with its unit, the environment and the checkpoint hashes. The run's result
and spans are also written under ``.perfbench_work/``. The exit code is 0
only when every operation passed its output checks.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, write_jsonl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("unlearn", "refit", "generate")


@dataclass
class Record:
    kind: str
    op: str  # operation id, shared by the operation's spans
    wall_s: float
    facts: dict | None
    error: str | None


def run_ops(ops, *, count: int | None = None, seconds: float | None = None,
            label: str, tracer: Tracer | None = None) -> list[Record]:
    """Run ``count`` operations, or operations until ``seconds`` have passed.

    Only the call is timed, not its checks. An operation that raises or
    fails a check is recorded with its error and the loop goes on.
    """
    records: list[Record] = []
    start = time.perf_counter()
    while (len(records) < count) if count is not None else (time.perf_counter() - start < seconds):
        op = next(ops)
        op_id = f"{label}{len(records)}"
        root = None
        if tracer is not None:
            tracer.op = op_id
            root = tracer.open(f"op.{op.kind}")
        t0 = time.perf_counter()
        facts = error = None
        try:
            try:
                out = op.call()
            finally:
                wall = time.perf_counter() - t0
                if root is not None:
                    tracer.close(root)
            facts = op.check(out)
        except Exception as exc:  # an operation failing must not stop the run
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        records.append(Record(op.kind, op_id, wall, facts, error))
    return records


# -- environment ---------------------------------------------------------------


def _blas_threads():
    """Threads numpy's bundled OpenBLAS will use, or None if it is not found."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    sources = sorted((root / "src" / "cflow").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_cflow_sha256": digest.hexdigest(),
        "src_cflow_lines": lines,
    }


# -- one run -------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool, plan=None, work: Path | None = None) -> dict:
    """Set up, measure and check one run; returns the full result.

    ``plan`` defaults to the full sizes and ``work`` to ``.perfbench_work/``
    in the checkout; the run's result and spans are written there.
    """
    # imports are part of set-up: the first import in a process pays for
    # numpy, scipy and yaml, so it is timed here rather than at module load
    t0 = time.perf_counter()
    import cflow  # noqa: F401
    import layers
    import workloads as wl

    import_s = time.perf_counter() - t0
    plan = plan or wl.FULL
    work = (work or ROOT / ".perfbench_work") / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()

    setup_times = []
    setup_ids = []
    with layers.instrumented(tracer) if trace else contextlib.nullcontext():
        for rep in range(plan.setup_reps):
            tracer.op = f"setup-{rep}"
            setup_ids.append(tracer.op)
            t0 = time.perf_counter()
            setup = wl.set_up(plan, workload, seed, work / f"setup-{rep}")
            setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    ops = wl.operations(workload, setup, plan, seed)
    records = run_ops(ops, count=wl.WARMUP_OPS[workload], label="warmup-")
    if trace:
        untraced = run_ops(ops, seconds=seconds / 2, label="untraced-")
        with layers.instrumented(tracer):
            traced = run_ops(ops, seconds=seconds / 2, label="op-", tracer=tracer)
        records += untraced + traced
        measured = untraced
    else:
        measured = run_ops(ops, seconds=seconds, label="op-")
        records += measured

    failed = sum(r.error is not None for r in records)
    detail = wl.detail_metrics(workload, measured)
    detail["setup_s"] = (setup_s, "s")
    detail["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    detail["failed_frac"] = (failed / len(records), "frac")
    if trace:
        traced_detail = wl.detail_metrics(workload, traced)
        if workload == "generate":
            base, slow = detail["samples_per_s"][0], traced_detail["samples_per_s"][0]
            overhead = base / slow - 1.0 if slow else 0.0
        else:
            base, slow = detail["stage_s"][0], traced_detail["stage_s"][0]
            overhead = slow / base - 1.0 if base else 0.0
        metrics = layers.layer_metrics(
            tracer.spans, [r.op for r in traced], setup_ids, overhead, [r.facts for r in traced if r.facts])
    else:
        metrics = {"setup_s": detail["setup_s"]}
        for name, (src, scale, unit) in wl.GATED[workload].items():
            metrics[name] = (detail[src][0] * scale, unit)
        metrics["peak_rss_mb"] = detail["peak_rss_mb"]

    shas = sorted({r.facts["sha256"] for r in records if r.facts and "sha256" in r.facts})
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(ROOT),
        "setup_times_s": setup_times,
        "import_s": import_s,
        "ckpt_sha256": shas,
        "counts": {kind: sum(r.kind == kind for r in measured) for kind in sorted({r.kind for r in measured})},
        "errors": [r.error for r in records if r.error],
        "ops": [[r.op, r.kind, r.wall_s] for r in records],
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "last_line": {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    if trace:
        write_jsonl(tracer.spans, work / "spans.jsonl")
    for rep in range(plan.setup_reps):
        shutil.rmtree(work / f"setup-{rep}", ignore_errors=True)
    return result


def report_lines(result: dict) -> list[str]:
    lines = [
        f"# perfbench workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']}",
        "env " + json.dumps(result["environment"], sort_keys=True),
        "counts " + json.dumps(result["counts"], sort_keys=True),
    ]
    for sha in result["ckpt_sha256"]:
        lines.append(f"ckpt_sha256 {result['workload']} {sha}")
    for error in result["errors"]:
        lines.append(f"error {error}")
    for name, m in result["detail"].items():
        lines.append(f"metric {name} {m['value']!r} {m['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "cflow" / "__init__.py").is_file():
        print(f"perfbench: no cflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(result):
        print(line)
    print(json.dumps(result["last_line"]))
    return 0 if result["last_line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
