"""tools/bench_json.py: pairs, summaries and the BENCH file, on stand-in checkouts."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
_spec = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

# prints what perfbench/run.py prints; op_ms_p50 is the checkout's speed
# file plus the seed, a traced run prints one per-layer metric instead (and
# a second, the value in the checkout's ``sampler.txt``, when it has one),
# and each run logs its seed, checkout and tracing one level up. Like run.py
# it writes its result.json (unless the checkout holds ``no_result``), with
# import_s seed / 100 and two warm-up operations of ms / 1000 and 1 s
FAKE_RUN = textwrap.dedent('''
    import json, sys
    from pathlib import Path
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    seed = int(args["--seed"])
    with open("../calls.txt", "a") as fh:
        fh.write(f"{seed} {Path.cwd().name}{' traced' if args['--trace'] == '1' else ''}\\n")
    ms = float(Path("speed.txt").read_text()) + seed
    if not Path("no_result").exists():
        work = Path(".perfbench_work", f"{args['--workload']}-trace{args['--trace']}")
        work.mkdir(parents=True, exist_ok=True)
        ops = [["warmup-0", "stage", ms / 1000.0], ["warmup-1", "stage", 1.0], ["op-0", "stage", 9.0]]
        (work / "result.json").write_text(json.dumps({"import_s": seed / 100.0, "ops": ops}))
    print("env " + json.dumps({"blas_threads": 1, "src_cflow_lines": 7}))
    print(f"ckpt_sha256 {args['--workload']} sha{seed}")
    metrics = {"op_ms_p50": {"value": ms, "unit": "ms"},
               "work_per_s": {"value": 1000.0 / ms, "unit": "1/s"}}
    if args["--trace"] == "1":
        metrics = {"flow.ot_coupling_s": {"value": ms / 1000.0, "unit": "s/op"}}
        if Path("sampler.txt").exists():
            metrics["flow.model_sampler_s"] = {"value": float(Path("sampler.txt").read_text()), "unit": "s/op"}
    print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
''')


def _checkout(root: Path, speed: float) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "speed.txt").write_text(str(speed))
    spec = {"end_to_end": [{"name": "op_ms_p50", "better": "lower"},
                           {"name": "work_per_s", "better": "higher"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_seed_lists():
    assert bench_json._seeds("7-9,12") == [7, 8, 9, 12]
    with pytest.raises(Exception):
        bench_json._seeds("-1")


def test_summary_quartiles():
    got = bench_json.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (got["median"], got["q1"], got["q3"]) == (3.0, 2.0, 4.0)
    assert bench_json.summary([2.5])["q1"] == 2.5


def test_writes_pairs_in_alternating_order(tmp_path):
    parent = _checkout(tmp_path / "parent", speed=100.0)
    change = _checkout(tmp_path / "change", speed=50.0)
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main(["--out", str(out), "--seeds", "1-4", "--workloads", "unlearn",
                            "--checkout", f"parent={parent}", "--checkout", f"change={change}"]) == 0
    doc = json.loads(out.read_text())
    entry = doc["workloads"]["unlearn"]
    assert entry["parent"]["metrics"]["op_ms_p50"]["values"] == [101.0, 102.0, 103.0, 104.0]
    assert entry["change"]["metrics"]["op_ms_p50"]["median"] == 52.5
    assert entry["wins_change_over_parent"] == {"op_ms_p50": "4/4", "work_per_s": "4/4"}
    assert entry["ckpt_sha256_equal"] and entry["change"]["ckpt_sha256"]["3"] == ["sha3"]
    assert doc["checkouts"]["change"]["environment"]["src_cflow_lines"] == 7
    assert entry["parent"]["failed"] == 0 and entry["parent"]["attempted"] == 12
    assert (tmp_path / "calls.txt").read_text().split("\n") == [
        "1 parent", "1 change", "2 change", "2 parent",
        "3 parent", "3 change", "4 change", "4 parent",
        "1 parent traced", "1 change traced", "2 change traced", "2 parent traced",
        "3 parent traced", "3 change traced", ""]
    assert doc["traced_seeds"] == [1, 2, 3]
    # the traced pairs are summarised like the untraced ones, beside them
    traced = entry["change"]["traced"]
    assert traced["metrics"] == {"flow.ot_coupling_s": {
        "unit": "s/op", "median": 0.052, "q1": 0.0515, "q3": 0.0525, "values": [0.051, 0.052, 0.053]}}
    assert (traced["attempted"], traced["failed"], traced["nonzero_exits"]) == (9, 0, 0)
    assert traced["ckpt_sha256"] == {"1": ["sha1"], "2": ["sha2"], "3": ["sha3"]}
    assert entry["parent"]["traced"]["metrics"]["flow.ot_coupling_s"]["median"] == 0.102
    assert "flow.ot_coupling_s" not in entry["parent"]["metrics"]
    # import time and warm-up operations, per seed and summarised, outside the metrics
    startup = entry["change"]["startup"]
    assert startup["by_seed"]["3"] == {"import_s": 0.03, "warmup_s": [0.053, 1.0]}
    assert startup["import_s"]["values"] == [0.01, 0.02, 0.03, 0.04]
    assert startup["warmup_s"]["values"] == pytest.approx([1.051, 1.052, 1.053, 1.054])
    assert traced["startup"]["import_s"]["values"] == [0.01, 0.02, 0.03]
    assert set(entry["gaps_change_over_parent"]) == {"op_ms_p50", "work_per_s"}


def test_a_run_without_its_result_file_records_null(tmp_path):
    parent = _checkout(tmp_path / "parent", speed=100.0)
    change = _checkout(tmp_path / "change", speed=50.0)
    (parent / "no_result").touch()
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main(["--out", str(out), "--seeds", "1-2", "--workloads", "refit",
                            "--checkout", f"parent={parent}", "--checkout", f"change={change}"]) == 0
    entry = json.loads(out.read_text())["workloads"]["refit"]
    assert entry["parent"]["startup"] == {"import_s": None, "warmup_s": None,
                                          "by_seed": {"1": None, "2": None}}
    assert entry["parent"]["traced"]["startup"]["by_seed"] == {"1": None, "2": None}
    assert entry["change"]["startup"]["import_s"]["median"] == 0.015
    assert entry["parent"]["metrics"]["op_ms_p50"]["values"] == [101.0, 102.0]


def test_traced_pairs_use_the_seeds_there_are(tmp_path):
    parent = _checkout(tmp_path / "parent", speed=100.0)
    change = _checkout(tmp_path / "change", speed=50.0)
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main(["--out", str(out), "--seeds", "7", "--workloads", "unlearn",
                            "--checkout", f"parent={parent}", "--checkout", f"change={change}"]) == 0
    assert (tmp_path / "calls.txt").read_text().split("\n") == [
        "7 parent", "7 change", "7 parent traced", "7 change traced", ""]
    traced = json.loads(out.read_text())["workloads"]["unlearn"]["change"]["traced"]
    assert traced["metrics"]["flow.ot_coupling_s"]["median"] == 0.057


def test_a_crashed_run_keeps_the_runs_that_finished(tmp_path):
    parent = _checkout(tmp_path / "parent", speed=100.0)
    change = _checkout(tmp_path / "change", speed=50.0)
    # this checkout's second run crashes
    (change / "perfbench" / "run.py").write_text(textwrap.dedent('''
        import sys
        from pathlib import Path
        count = Path("count.txt")
        count.write_text(str(int(count.read_text()) + 1 if count.exists() else 1))
        if count.read_text() == "2":
            sys.stderr.write("Traceback: boom\\n")
            sys.exit(3)
    ''') + FAKE_RUN)
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main(["--out", str(out), "--seeds", "1-3", "--workloads", "unlearn", "refit",
                            "--checkout", f"parent={parent}", "--checkout", f"change={change}"]) == 1
    assert (tmp_path / "calls.txt").read_text().split("\n") == ["1 parent", "1 change", ""]
    doc = json.loads(out.read_text())
    entry = doc["workloads"]["unlearn"]
    assert entry["parent"]["metrics"]["op_ms_p50"]["values"] == [101.0]
    assert entry["change"]["metrics"]["op_ms_p50"]["values"] == [51.0]
    assert entry["change"]["traced"]["metrics"] == {}
    assert "traced_gaps_change_over_parent" not in entry
    assert doc["workloads"]["refit"]["parent"]["metrics"] == {}
    assert doc["checkouts"]["change"]["environment"]["src_cflow_lines"] == 7
    failed = doc["failed_run"]
    assert "--workload unlearn --seed 2" in failed["command"] and failed["cwd"] == str(change)
    assert failed["exit"] == 3 and "boom" in failed["stderr_tail"]


def test_gaps_and_the_gain_rule(tmp_path):
    parent = _checkout(tmp_path / "parent", speed=100.0)
    change = _checkout(tmp_path / "change", speed=50.0)
    same = _checkout(tmp_path / "same", speed=99.0)
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main(["--out", str(out), "--seeds", "1-10", "--workloads", "unlearn",
                            "--checkout", f"parent={parent}", "--checkout", f"change={change}"]) == 0
    entry = json.loads(out.read_text())["workloads"]["unlearn"]
    got = entry["gaps_change_over_parent"]["op_ms_p50"]
    # parent 101..110 ms: median 105.5, quartiles 103.25 and 107.75; change 51..60
    assert got["median_gap"] == pytest.approx((55.5 - 105.5) / 105.5)
    assert got["parent_spread"] == pytest.approx(4.5 / 105.5)
    assert got["gain_rule_holds"] and entry["wins_change_over_parent"]["op_ms_p50"] == "10/10"
    # beside it the paired figure over the ratios (50 + s) / (100 + s) - 1
    ratios = sorted((50.0 + s) / (100.0 + s) - 1.0 for s in range(1, 11))
    assert got["paired"] == {
        "ratio_median": pytest.approx((ratios[4] + ratios[5]) / 2),
        "ratio_q1": pytest.approx(ratios[2] + 0.25 * (ratios[3] - ratios[2])),
        "ratio_q3": pytest.approx(ratios[6] + 0.75 * (ratios[7] - ratios[6])),
        "wins": "10/10", "sign_test_p": 2 / 1024}
    assert entry["gaps_change_over_parent"]["work_per_s"]["gain_rule_holds"]

    # 1 ms faster wins every pair but is inside the parent's own spread
    (tmp_path / "calls.txt").unlink()
    assert bench_json.main(["--out", str(out), "--seeds", "1-10", "--workloads", "unlearn",
                            "--checkout", f"parent={parent}", "--checkout", f"same={same}"]) == 0
    entry = json.loads(out.read_text())["workloads"]["unlearn"]
    assert entry["wins_same_over_parent"]["op_ms_p50"] == "10/10"
    assert not entry["gaps_same_over_parent"]["op_ms_p50"]["gain_rule_holds"]


def test_traced_gaps_give_both_medians_and_their_difference(tmp_path):
    parent = _checkout(tmp_path / "parent", speed=100.0)
    change = _checkout(tmp_path / "change", speed=50.0)
    (parent / "sampler.txt").write_text("0.148")
    (change / "sampler.txt").write_text("0.0")
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main(["--out", str(out), "--seeds", "1-4", "--workloads", "refit",
                            "--checkout", f"parent={parent}", "--checkout", f"change={change}"]) == 0
    got = json.loads(out.read_text())["workloads"]["refit"]["traced_gaps_change_over_parent"]
    # traced on seeds 1-3: OT 0.101..0.103 against 0.051..0.053; the sampler 0.148 against 0
    assert got == {
        "flow.ot_coupling_s": {"parent_median": 0.102, "change_median": 0.052,
                               "difference": pytest.approx(-0.05)},
        "flow.model_sampler_s": {"parent_median": 0.148, "change_median": 0.0, "difference": -0.148},
    }
    # a metric only one checkout traced has no gap
    (parent / "sampler.txt").unlink()
    (tmp_path / "calls.txt").unlink()
    assert bench_json.main(["--out", str(out), "--seeds", "1-4", "--workloads", "refit",
                            "--checkout", f"parent={parent}", "--checkout", f"change={change}"]) == 0
    got = json.loads(out.read_text())["workloads"]["refit"]["traced_gaps_change_over_parent"]
    assert set(got) == {"flow.ot_coupling_s"}


def test_the_gain_rule_needs_ten_pairs_and_nine_wins():
    better = {"op_ms_p50": "lower"}
    first = {"metrics": {"op_ms_p50": {"median": 100.0, "q1": 99.0, "q3": 101.0}}}
    last = {"metrics": {"op_ms_p50": {"median": 50.0, "q1": 49.0, "q3": 51.0}}}
    rule = {won: bench_json.gaps(first, last, {"op_ms_p50": won}, better)["op_ms_p50"]["gain_rule_holds"]
            for won in ("9/10", "8/10", "9/9", "18/20", "17/20")}
    assert rule == {"9/10": True, "8/10": False, "9/9": False, "18/20": True, "17/20": False}
    worse = bench_json.gaps(last, first, {"op_ms_p50": "10/10"}, better)["op_ms_p50"]
    assert worse["median_gap"] == 1.0 and not worse["gain_rule_holds"]


def _runs(name, values):
    return [{"metrics": {name: v}} for v in values]


def test_the_paired_figure_drops_ties_and_signs_by_direction():
    first = _runs("work_per_s", [10.0, 10.0, 10.0, 10.0, 20.0])
    last = _runs("work_per_s", [11.0, 10.0, 9.0, 12.0, 25.0])
    got = bench_json.paired(first, last, {"work_per_s": "higher"})["work_per_s"]
    # ratios 0.1, 0, -0.1, 0.2, 0.25; one tie dropped: 3 wins, 1 loss
    assert got["ratio_median"] == pytest.approx(0.1)
    assert (got["ratio_q1"], got["ratio_q3"]) == (pytest.approx(0.0), pytest.approx(0.2))
    assert got["wins"] == "3/4" and got["sign_test_p"] == pytest.approx(2 * 5 / 16)
    assert bench_json.paired(first, last, {"work_per_s": "lower"})["work_per_s"]["wins"] == "1/4"
    assert bench_json.sign_test_p(0, 0) == 1.0 and bench_json.sign_test_p(5, 5) == 1.0
    assert bench_json.sign_test_p(9, 1) == pytest.approx(2 * 11 / 1024)


def test_the_paired_figure_of_bench_15_generate_setup():
    doc = json.loads((_PATH.parent.parent / "BENCH_15.json").read_text())["workloads"]["generate"]
    first, last = (_runs("setup_s", doc[label]["metrics"]["setup_s"]["values"]) for label in ("parent", "change"))
    got = bench_json.paired(first, last, {"setup_s": "lower"})["setup_s"]
    assert round(got["ratio_median"], 3) == -0.155
    # the inclusive quartiles; the exclusive ones are -20.2% and -8.3%
    assert (round(got["ratio_q1"], 3), round(got["ratio_q3"], 3)) == (-0.198, -0.097)
    assert got["wins"] == "10/10" and got["sign_test_p"] == pytest.approx(0.00195, abs=1e-5)
    # the gain rule on the same runs is false against the parent's 16.3% spread
    rule = bench_json.gaps(doc["parent"], doc["change"], {"setup_s": got["wins"]}, {"setup_s": "lower"})
    assert not rule["setup_s"]["gain_rule_holds"]
