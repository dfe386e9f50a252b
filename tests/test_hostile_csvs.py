"""Damaged CSVs: a points CSV given to ``cflow energy eval --points`` and a
``report.csv`` read by ``cflow report``, cut short, with one bit flipped or
with a run of their own bytes spliced in elsewhere, either still read (exit
0, nothing on standard error) or exit 2 or 4 with one line (naming the
damaged ``report.csv``), and leave every file under the run directory as
it was."""

import functools
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cflow import cli, harness
from cflow import datasets as ds
from cflow import metrics as me

# derandomized, so that every run of the suite tries the same files
HOSTILE = settings(max_examples=120, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


def csv_bytes(write) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.csv"
        write(path)
        return path.read_bytes()


@functools.cache
def points_bytes() -> bytes:
    """Twelve labeled circles points, as ``cflow datasets export`` writes them."""
    return csv_bytes(lambda path: ds.export_csv(ds.generate("circles", 12, 3), path))


def report_row(**kw) -> me.MetricsReport:
    base = dict(dataset="circles", method="unlearn", seed=0, lam=5.0, mmd_retain=0.01,
                retention_accuracy=1.0, forget_rate=0.02, leakage=0.03, train_time_s=4.0,
                inference_ms_per_sample=0.05)
    return me.MetricsReport(**{**base, **kw})


@functools.cache
def report_bytes() -> bytes:
    """A stage's ``report.csv`` of three eval seeds, one of them without timings."""
    rows = [report_row(seed=0), report_row(seed=1, mmd_retain=0.25), report_row(seed=2, train_time_s=None)]
    return csv_bytes(lambda path: harness.write_report_csv(path, rows))


def damage(data_of):
    """(kind, bytes) of one damaged copy: cut to any shorter length, one bit
    flipped anywhere, or a run of the file's own bytes inserted anywhere."""
    size = len(data_of())
    index = st.integers(0, size - 1)

    def spliced(lo, hi, at):
        data = data_of()
        return data[:at] + data[min(lo, hi):max(lo, hi) + 1] + data[at:]

    def flipped(bit):
        out = bytearray(data_of())
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)

    return st.one_of(
        st.tuples(st.just("truncated"), index.map(lambda n: data_of()[:n])),
        st.tuples(st.just("flipped"), st.integers(0, 8 * size - 1).map(flipped)),
        st.tuples(st.just("spliced"), st.builds(spliced, index, index, index)),
    )


def read_tree(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def stage_dirs(root: Path) -> Path:
    """A run directory with a finished ``learn/`` and ``unlearn/``."""
    run = root / "run"
    for stage, row in (("learn", report_row(method="learn", lam=None)), ("unlearn", report_row())):
        (run / stage).mkdir(parents=True, exist_ok=True)
        harness.write_report_csv(run / stage / "report.csv", [row])
        (run / stage / "ckpt.bin").write_bytes(b"checkpoint")
    return run


def assert_one_line_or_none(code: int, err: str) -> None:
    if code == 0:
        assert err == ""
    else:
        assert code in (2, 4), (code, err)
        assert err.startswith(("error: ", "config error: ")) and err.count("\n") == 1, err


@HOSTILE
@given(damaged=damage(points_bytes))
def test_cflow_energy_eval_on_a_damaged_points_csv_gives_one_line(tmp_path, capsys, damaged):
    _, data = damaged
    run = stage_dirs(tmp_path)
    before = read_tree(run)
    points = tmp_path / "pts.csv"
    points.write_bytes(data)
    spec = tmp_path / "energy.yaml"
    spec.write_text("kind: analytic\nbenchmark: circles\nlam: 5.0\n")
    scored = tmp_path / "scored.csv"
    scored.unlink(missing_ok=True)
    code = cli.main(["energy", "eval", "--spec", str(spec), "--points", str(points), "--out", str(scored)])
    assert_one_line_or_none(code, capsys.readouterr().err)
    assert scored.exists() == (code == 0)
    assert read_tree(run) == before


@HOSTILE
@given(damaged=damage(report_bytes))
def test_cflow_report_on_a_damaged_report_csv_gives_one_line(tmp_path, capsys, damaged):
    kind, data = damaged
    run = stage_dirs(tmp_path)
    (run / "unlearn" / "report.csv").write_bytes(data)
    before = read_tree(run)
    summary = tmp_path / "summary.csv"
    summary.unlink(missing_ok=True)
    code = cli.main(["report", "--runs", str(run), "--out", str(summary)])
    err = capsys.readouterr().err
    assert_one_line_or_none(code, err)
    assert code == 0 or str(run / "unlearn" / "report.csv") in err  # every refusal names the file
    assert summary.exists() == (code == 0)
    if kind == "truncated" and len(data) < len(report_bytes().split(b"\n")[0]):
        assert code == 4  # no whole header row
    assert read_tree(run) == before


def test_a_quote_left_open_past_the_field_size_limit_gives_one_line(tmp_path, capsys):
    # one bit turns a leading "2" (0x32) into '"' (0x22): in a file of over
    # 128 KiB the quoted field then outgrows the csv module's field limit
    run = stage_dirs(tmp_path)
    points = tmp_path / "pts.csv"
    ds.export_csv(ds.generate("circles", 5000, 3), points)
    lines = points.read_bytes().split(b"\r\n")
    lines[3] = b'"' + lines[3]
    points.write_bytes(b"\r\n".join(lines))
    report = run / "unlearn" / "report.csv"
    report.write_bytes(report.read_bytes() + b'"' + b"0" * 200_000 + b"\r\n")
    before = read_tree(run)
    spec = tmp_path / "energy.yaml"
    spec.write_text("kind: analytic\nbenchmark: circles\nlam: 5.0\n")
    assert cli.main(["energy", "eval", "--spec", str(spec), "--points", str(points),
                     "--out", str(tmp_path / "scored.csv")]) == 4
    err = capsys.readouterr().err
    assert err == f"error: {points}: field larger than field limit (131072)\n"
    assert cli.main(["report", "--runs", str(run), "--out", str(tmp_path / "summary.csv")]) == 4
    assert capsys.readouterr().err == f"error: {report}: field larger than field limit (131072)\n"
    assert read_tree(run) == before
    assert not (tmp_path / "scored.csv").exists() and not (tmp_path / "summary.csv").exists()
