"""Peak and current resident memory after each phase of a perfbench run.

    python3 tools/rss_phases.py --workload refit --seed 41 [--ops 2] [--plan source_pool=65536 ...]

Runs the set-up of one ``perfbench/workloads.py`` workload as perfbench
does (``setup_reps`` set-ups, one BLAS thread), then its first ``--ops``
operations, and prints one line after the set-up and after each phase of
those operations:

    classifier   ``harness.ensure_classifier``
    prior_draws  ``harness._prior_draws`` (source pool, trajectory and eval bases)
    train        ``flow.train``
    scoring      ``energy.BinaryClassifier.logits`` (a pool's energy weights,
                 a stage's classifier scores), inside the phase that calls it
    trajectory   ``flow.trajectory``
    evaluation   ``metrics.evaluate_rows``
    writes       the body of ``harness._publish`` (a stage's files)
    op           the end of each operation (a ``generate`` request has no phases)

Each line gives the process's high-water mark (``ru_maxrss``), how much the
phase raised it, and the current RSS, all in MiB. A phase that raised the
high-water mark is where a peak-RSS change sits. ``--plan NAME=VALUE``
replaces a field of perfbench's full plan (``workloads.FULL``). The
workload file is read from this checkout and left as it is; the stages
write into a temporary directory that is removed at the end.

Uses the standard library and cflow only.
"""

from __future__ import annotations

import os

# perfbench/run.py's setting, before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """``perfbench/workloads.py`` of this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _rss_mib() -> float | None:
    """The current resident set size, where ``/proc`` gives it."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _maxrss_mib() -> float:
    scale = 2**20 if sys.platform == "darwin" else 2**10  # bytes on macOS, KiB elsewhere
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20


class Phases:
    """Prints one line per finished phase."""

    def __init__(self, out=sys.stdout):
        self.out = out
        self.op = "-"
        self.peak = _maxrss_mib()
        print(f"{'phase':<12} {'op':>3} {'maxrss_mib':>10} {'rise_mib':>8} {'rss_mib':>8}", file=out)

    def mark(self, phase: str) -> None:
        peak, rss = _maxrss_mib(), _rss_mib()
        rise, self.peak = peak - self.peak, peak
        current = "n/a" if rss is None else f"{rss:.1f}"
        print(f"{phase:<12} {self.op:>3} {peak:>10.1f} {rise:>8.1f} {current:>8}", file=self.out, flush=True)

    def wrap(self, phase: str, fn):
        def wrapped(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark(phase)

        return wrapped

    def wrap_publish(self, publish):
        @contextlib.contextmanager
        def wrapped(final):
            with publish(final) as partial:
                try:
                    yield partial
                finally:
                    self.mark("writes")

        return wrapped


def _plan_field(text: str) -> tuple[str, int]:
    """``NAME=VALUE`` as a plan field and its value, a count of at least 1."""
    name, sep, value = text.partition("=")
    try:
        if sep and int(value) >= 1:
            return name, int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected NAME=COUNT with a COUNT of at least 1, got {text!r}")


def run(wl, workload: str, seed: int, ops: int, overrides: dict, out=sys.stdout) -> None:
    """Set up ``workload`` as perfbench does, then run its first ``ops``
    operations with every phase reported (module docstring)."""
    from cflow import energy, flow, harness, metrics

    phase_calls = [("classifier", harness, "ensure_classifier"), ("prior_draws", harness, "_prior_draws"),
                   ("train", flow, "train"), ("scoring", energy.BinaryClassifier, "logits"),
                   ("trajectory", flow, "trajectory"), ("evaluation", metrics, "evaluate_rows")]
    plan = dataclasses.replace(wl.FULL, **overrides)
    phases = Phases(out)
    with tempfile.TemporaryDirectory(prefix="rss-phases-") as work, contextlib.ExitStack() as undo:
        for rep in range(plan.setup_reps):
            setup = wl.set_up(plan, workload, seed, Path(work) / f"setup-{rep}")
        phases.mark("setup")
        for phase, module, name in phase_calls:
            original = getattr(module, name)
            setattr(module, name, phases.wrap(phase, original))
            undo.callback(setattr, module, name, original)
        undo.callback(setattr, harness, "_publish", harness._publish)
        harness._publish = phases.wrap_publish(harness._publish)
        stream = wl.operations(workload, setup, plan, seed)
        for index in range(ops):
            phases.op = str(index)
            op = next(stream)
            op.check(op.call())
            phases.mark(f"op {op.kind}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("unlearn", "refit", "generate"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--ops", type=int, default=2, help="operations to run after the set-up (default 2)")
    parser.add_argument("--plan", type=_plan_field, nargs="*", default=[], metavar="NAME=VALUE",
                        help="replace a field of perfbench's full plan")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.ops < 0:
        parser.error("--seed and --ops must be >= 0")
    sys.path.insert(0, str(ROOT / "src"))
    wl = _workloads()
    fields = {f.name for f in dataclasses.fields(wl.Plan)}
    for name, _ in args.plan:
        if name not in fields:
            parser.error(f"--plan {name}: not a field of workloads.Plan ({', '.join(sorted(fields))})")
    run(wl, args.workload, args.seed, args.ops, dict(args.plan))
    return 0


if __name__ == "__main__":
    sys.exit(main())
