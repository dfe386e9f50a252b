"""tools/rss_phases.py: one line per phase of a tiny perfbench run."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rss_phases.py"
# perfbench's own tiny test plan
TINY = ["setup_reps=1", "data_n=1000", "train_steps=150", "unlearn_steps=60", "chain_unlearn_steps=10",
        "batch=64", "source_pool=512", "eval_n=200", "small_n=32", "large_n=256"]


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=300)


# the phases of each workload's first stage operation, between its set-up and
# its end: a refit's pool draw comes before training and its trajectory and
# eval bases after it; an unlearn scores its pool inside training; each
# stage's evaluation scores its samples with the classifier
PHASES = {
    "refit": ["classifier", "prior_draws", "train", "prior_draws", "trajectory", "prior_draws",
              "scoring", "scoring", "evaluation", "writes"],
    "unlearn": ["classifier", "scoring", "train", "prior_draws", "trajectory", "prior_draws",
                "scoring", "scoring", "evaluation", "writes"],
}


@pytest.mark.parametrize("workload", PHASES)
def test_a_tiny_run_reports_every_phase_of_its_first_operation(workload):
    done = run_tool("--workload", workload, "--seed", "5", "--ops", "1", "--plan", *TINY)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["phase", "op", "maxrss_mib", "rise_mib", "rss_mib"]
    rows = [line.rsplit(maxsplit=4) for line in lines]
    phases = [row[0] for row in rows]
    assert phases[0] == "setup" and phases[-1] == "op stage"
    assert phases[1:-1] == PHASES[workload]
    peaks = [float(row[2]) for row in rows]
    assert peaks == sorted(peaks) and all(float(row[3]) >= 0.0 for row in rows)
    assert all(float(row[4]) > 0.0 for row in rows)
    assert [row[1] for row in rows] == ["-"] + ["0"] * (len(rows) - 1)


@pytest.mark.parametrize("plan", ["no_such_field=1", "data_n=many", "setup_reps=0"])
def test_a_plan_field_that_is_not_a_count_field_of_the_plan_is_refused(plan):
    done = run_tool("--workload", "refit", "--seed", "5", "--plan", plan)
    assert done.returncode == 2 and "--plan" in done.stderr
