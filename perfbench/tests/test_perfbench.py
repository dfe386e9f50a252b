"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

TINY = wl.Plan(
    setup_reps=1,
    data_n=1000,
    train_steps=150,
    unlearn_steps=60,
    chain_unlearn_steps=10,
    batch=64,
    source_pool=512,
    eval_n=200,
    small_n=32,
    large_n=256,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "unlearn": {"stage_s", "train_steps_per_s", "outside_train_s"},
    "refit": {"stage_s", "train_steps_per_s", "outside_train_s"},
    "generate": {
        "sample_small_ms_p50",
        "sample_small_ms_p90",
        "sample_large_ms_p50",
        "sample_large_points_per_s",
        "samples_per_s",
        "score_ms_p50",
    },
}


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result = run.bench(workload, seed=5, seconds=0.5, trace=trace, plan=TINY, work=tmp_path)
    last = result["last_line"]
    assert last["correct"], result["errors"]
    assert last["attempted"] >= 1 and last["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert _units(last["metrics"]) == {m["name"]: m["unit"] for m in wanted}
    named = WORKLOAD_METRICS[workload] | {"setup_s", "peak_rss_mb", "failed_frac"}
    assert named <= set(result["detail"])
    assert all(m["unit"] for m in result["detail"].values())
    assert (tmp_path / f"{workload}-trace{int(trace)}" / "result.json").is_file()
    if trace:
        spans = (tmp_path / f"{workload}-trace1" / "spans.jsonl").read_text().splitlines()
        assert set(json.loads(spans[0])) == {"name", "start", "end", "parent", "op", "attrs"}


def test_trace_splits_work_by_layer(tmp_path):
    metrics = run.bench("generate", seed=2, seconds=0.5, trace=True, plan=TINY, work=tmp_path)
    values = {k: m["value"] for k, m in metrics["last_line"]["metrics"].items()}
    assert values["diffcore.backward_s"] == 0.0
    assert values["energy.weight_calls"] == 0.0
    assert values["flow.ot_coupling_calls"] == 0.0
    assert values["diffcore.forward_raw_calls"] > 0


def _failing_stream(ops):
    for index, op in enumerate(ops):
        if index == 2:
            yield wl.Op(op.kind, lambda: 1 / 0, op.check)
        else:
            yield op


def test_injected_failure_raises_failed_frac_and_exit_code(tmp_path, monkeypatch):
    operations = wl.operations
    monkeypatch.setattr(wl, "operations", lambda *a: _failing_stream(operations(*a)))
    result = run.bench("generate", seed=3, seconds=0.5, trace=False, plan=TINY, work=tmp_path)
    assert result["last_line"]["failed"] >= 1
    assert result["last_line"]["correct"] is False
    assert result["detail"]["failed_frac"]["value"] > 0.0
    assert any(e.startswith("ZeroDivisionError") for e in result["errors"])

    monkeypatch.setattr(run, "bench", lambda *a, **k: result)
    argv = ["--workload", "generate", "--seed", "3", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 1


def test_failed_check_is_counted():
    def bad(out):
        raise wl.CheckError("wrong output")

    ops = iter([wl.Op("a", lambda: 1, lambda out: {}), wl.Op("b", lambda: 2, bad)])
    records = run.run_ops(ops, count=2, label="t-")
    assert [r.error for r in records] == [None, "CheckError: wrong output"]


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1, "op"),
        Span("b", 1.0, 4.0, 0, "op"),
        Span("c", 2.0, 3.0, 1, "op"),
        Span("d", 5.0, 7.0, 0, "op"),
        Span("e", 12.0, 13.0, -1, "op"),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]


class _Target:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.advance(1.0)
        self.inner()
        self.clock.advance(2.0)
        return "done"

    def inner(self):
        self.clock.advance(4.0)

    def broken(self):
        raise ValueError("no")


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_tracer_records_nesting_self_time_and_errors():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    original = _Target.outer
    tracer.wrap(_Target, "outer", "outer")
    tracer.wrap(_Target, "inner", "inner")
    tracer.wrap(_Target, "broken", "broken")
    tracer.op = "op-0"
    target = _Target(clock)
    assert target.outer() == "done"
    with pytest.raises(ValueError):
        target.broken()
    tracer.unwrap_all()
    assert _Target.outer is original
    outer, inner, broken = tracer.spans
    assert (inner.parent, outer.parent, broken.parent) == (0, -1, -1)
    assert {s.op for s in tracer.spans} == {"op-0"}
    assert self_times(tracer.spans)[:2] == [3.0, 4.0]
    assert broken.attrs == {"error": "ValueError"}


def test_layer_metrics_are_per_operation():
    spans = [
        Span("op.stage", 0.0, 10.0, -1, "op-0"),
        Span("flow.train", 1.0, 9.0, 0, "op-0"),
        Span("flow.ot_coupling", 2.0, 5.0, 1, "op-0"),
        Span("op.stage", 10.0, 20.0, -1, "op-1"),
        Span("energy.train_classifier", 0.0, 2.0, -1, "setup-0"),
    ]
    facts = [{"ot_cost": 1.0, "independent_cost": 4.0}, {"ot_cost": 2.0, "independent_cost": 4.0}]
    values = layers.layer_metrics(spans, ["op-0", "op-1"], ["setup-0"], 0.01, facts)
    assert values["flow.ot_coupling_s"] == (1.5, "s/op")
    assert values["flow.ot_coupling_calls"] == (0.5, "calls/op")
    assert values["flow.ot_cost_ratio"][0] == 0.375
    assert values["flow.ot_cost"][0] == 1.5
    assert values["flow.train_self_s"][0] == pytest.approx((8.0 - 3.0) / 2)
    assert values["energy.train_classifier_s"][0] == 2.0
    assert set(values) == set(layers.PER_LAYER)


def test_generate_gated_metrics_do_not_depend_on_the_mix():
    def rec(kind, wall, n=None):
        return run.Record(kind, "op", wall, {"n": n} if n else {}, None)

    base = [rec("small", 0.01, 256), rec("large", 2.0, 4096), rec("score", 0.1)]
    more_small = base + [rec("small", 0.01, 256)] * 50
    gated = wl.GATED["generate"]
    a, b = wl.detail_metrics("generate", base), wl.detail_metrics("generate", more_small)
    assert all(a[src] == b[src] for src, _, _ in gated.values())
    assert a["sample_large_points_per_s"] == (2048.0, "1/s")


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "unlearn", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
