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
# file plus the seed, a traced run prints one per-layer metric instead, and
# each run logs its seed, checkout and tracing one level up
FAKE_RUN = textwrap.dedent('''
    import json, sys
    from pathlib import Path
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    seed = int(args["--seed"])
    with open("../calls.txt", "a") as fh:
        fh.write(f"{seed} {Path.cwd().name}{' traced' if args['--trace'] == '1' else ''}\\n")
    ms = float(Path("speed.txt").read_text()) + seed
    print("env " + json.dumps({"blas_threads": 1, "src_cflow_lines": 7}))
    print(f"ckpt_sha256 {args['--workload']} sha{seed}")
    metrics = {"op_ms_p50": {"value": ms, "unit": "ms"},
               "work_per_s": {"value": 1000.0 / ms, "unit": "1/s"}}
    if args["--trace"] == "1":
        metrics = {"flow.ot_coupling_s": {"value": ms / 1000.0, "unit": "s/op"}}
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
