"""Experiment orchestration: configs, stages, artifacts, reports, CLI."""

import csv
import hashlib
import importlib.metadata
import math
import os
import platform
import shutil
import subprocess
import sys
import textwrap
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cflow import cli
from cflow import datasets as ds
from cflow import energy as en
from cflow import flow
from cflow import harness
from cflow import metrics as me
from cflow.diffcore import blas_threads, inference_threads, save_mlp, velocity_mlp


def tiny_config(tmp_path, pipeline="learn", **overrides) -> dict:
    """A fast toy config: small data, few steps, single eval seed."""
    data = {
        "name": "tiny",
        "benchmark": "circles",
        "pipeline": pipeline,
        "out": str(tmp_path / "run"),
        "seed": 0,
        "data_n": 512,
        "train": {
            "steps": 40,
            "batch": 64,
            "integration_steps": 5,
            "transport_integration_steps": 5,
        },
        "source_pool": 2048,
        "source_steps": 5,
        "eval_seeds": [0],
        "eval_n": 128,
    }
    data.update(overrides)
    return data


def tiny_spec(tmp_path, pipeline="learn", **overrides):
    return harness.spec_from_dict(tiny_config(tmp_path, pipeline, **overrides))


def write_config(path, data) -> Path:
    with path.open("w") as fh:
        yaml.safe_dump(harness._plain(data), fh)
    return path


def read_tree(root) -> dict:
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


def report_rows(path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def learned_cli_run(tmp_path_factory):
    """The run directory of one tiny ``cflow train``; copy it before changing it."""
    tmp = tmp_path_factory.mktemp("learned-cli")
    cfg = write_config(tmp / "exp.yaml", tiny_config(tmp))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return tmp / "run"


@pytest.fixture(scope="module")
def unlearned_cli_run(learned_cli_run, tmp_path_factory):
    """``learned_cli_run`` with its ``cflow unlearn`` done; copy it before changing it."""
    tmp = tmp_path_factory.mktemp("unlearned-cli")
    shutil.copytree(learned_cli_run, tmp / "run")
    cfg = write_config(tmp / "exp.yaml", tiny_config(tmp))
    assert cli.main(["unlearn", "--config", str(cfg)]) == 0
    return tmp / "run"


@pytest.fixture(scope="module")
def learned_run(tmp_path_factory):
    """One tiny learn stage shared by the dependent-stage tests."""
    tmp = tmp_path_factory.mktemp("learned")
    spec = tiny_spec(tmp)
    artifact = harness.run(spec)
    return spec, artifact


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(harness.ConfigError, match="unknown"):
            tiny_spec(tmp_path, typo_field=1)

    def test_unknown_train_key_rejected(self, tmp_path):
        with pytest.raises(harness.ConfigError, match="unknown"):
            tiny_spec(tmp_path, train={"steps": 10, "warmup": 5})

    def test_bad_pipeline_rejected(self, tmp_path):
        with pytest.raises(harness.ConfigError):
            tiny_spec(tmp_path, pipeline="mystery")

    def test_bad_benchmark_rejected(self, tmp_path):
        with pytest.raises(harness.ConfigError):
            tiny_spec(tmp_path, benchmark="blobs")

    def test_bad_energy_kind_rejected(self, tmp_path):
        with pytest.raises(harness.ConfigError):
            tiny_spec(tmp_path, energy={"kind": "oracle"})

    def test_yaml_round_trip(self, tmp_path):
        spec = tiny_spec(tmp_path)
        path = tmp_path / "cfg.yaml"
        with path.open("w") as fh:
            yaml.safe_dump(harness._plain(spec.to_dict()), fh)
        loaded = harness.load_spec(path)
        assert loaded.to_dict() == spec.to_dict()
        assert loaded.config_hash() == spec.config_hash()

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(harness.ConfigError):
            harness.load_spec(tmp_path / "nope.yaml")

    def test_malformed_yaml_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: [unclosed\n")
        with pytest.raises(harness.ConfigError, match="malformed YAML") as info:
            harness.load_spec(path)
        assert str(path) in str(info.value) and "\n" not in str(info.value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: spec.with_pipeline("learn", seed=-1),
            lambda spec: spec.with_pipeline("sweep-lambda", lambda_grid=[]),
            lambda spec: harness.benchmark_spec("circles", out=spec.out, seed=1.5),
            lambda spec: harness.benchmark_spec("circles", out=spec.out, train={"lr": 0}),
        ],
        ids=["with_pipeline-seed", "with_pipeline-empty-grid", "benchmark_spec-seed",
             "benchmark_spec-lr"],
    )
    def test_every_constructor_checks(self, tmp_path, build):
        with pytest.raises(harness.ConfigError):
            build(tiny_spec(tmp_path))

    @pytest.mark.parametrize("grid", [[0.5, 0.5], [0.5, 2.0, 0.5000001]], ids=["equal", "same-name"])
    def test_sweep_arms_sharing_a_directory_are_refused(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path / "exp.yaml", tiny_config(tmp_path, lambda_grid=grid))
        assert cli.main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: lambda_grid values 0.5 and {grid[-1]!r} both run in sweep/lam_0.5\n"
        assert not (tmp_path / "run").exists()

    def test_eval_n_is_bounded(self, tmp_path):
        assert tiny_spec(tmp_path, eval_n=me.MAX_EVAL_N).eval_n == me.MAX_EVAL_N
        with pytest.raises(harness.ConfigError, match="eval_n must be <= "):
            tiny_spec(tmp_path, eval_n=me.MAX_EVAL_N + 1)

    def test_sections_take_their_normal_form(self, tmp_path):
        spec = tiny_spec(tmp_path, lambda_grid=[1, 2], energy={"lam": 3}, invert_lam=10)
        assert spec.lambda_grid == (1.0, 2.0) and type(spec.lambda_grid[0]) is float
        assert type(spec.energy.lam) is float and type(spec.invert_lam) is float
        assert spec.train.hidden == (64, 64, 64) and spec.eval_seeds == (0,)


HOSTILE = [True, False, "x", None, [[1]], 0, -1, -0.5, float("nan"), float("inf"), 10**30]
SPEC_KEYS = [(f.name,) for f in fields(harness.ExperimentSpec)]
SECTION_KEYS = [("train", f.name) for f in fields(flow.TrainConfig)] + [
    ("energy", f.name) for f in fields(harness.EnergySection)
]


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(SPEC_KEYS + SECTION_KEYS), value=st.sampled_from(HOSTILE))
def test_hostile_field_gives_config_error_or_spec(key, value):
    data = {**tiny_config(Path("run")), "energy": {}}
    node = data
    for k in key[:-1]:
        node = node[k]
    node[key[-1]] = value
    try:
        spec = harness.spec_from_dict(data)
    except harness.ConfigError:
        return
    # an accepted value is in normal form: no bool, non-finite number or
    # nested list, and the spec's own dump loads back unchanged
    got = spec
    for k in key:
        got = getattr(got, k)
    for v in got if isinstance(got, tuple) else [got]:
        assert not isinstance(v, (bool, list, tuple))
        assert not isinstance(v, float) or math.isfinite(v)
    assert harness.spec_from_dict(harness._plain(spec.to_dict())) == spec


class TestStages:
    def test_learn_stage_artifacts(self, learned_run):
        spec, artifact = learned_run
        d = artifact.stage_dir
        for name in ("config.yaml", "meta.yaml", "ckpt.bin", "loss.csv", "traj.csv", "report.csv"):
            assert (d / name).exists(), name
        meta = yaml.safe_load((d / "meta.yaml").read_text())
        assert meta["config_sha256"] == spec.config_hash()
        assert meta["seed"] == spec.seed
        assert meta["blas_threads"] == blas_threads()
        assert meta["inference_threads"] == inference_threads()
        assert meta["cpu_count"] == os.cpu_count()
        assert meta["python"] == platform.python_version()
        assert meta["numpy"] == importlib.metadata.version("numpy")
        assert meta["scipy"] == importlib.metadata.version("scipy")
        rows = harness.read_report_csv(d / "report.csv")
        assert len(rows) == 1
        assert rows[0].method == "learn"
        assert (d / "loss.csv").read_text().splitlines()[0] == "step,loss"

    def test_dependent_stage_without_learn_rejected(self, tmp_path):
        spec = tiny_spec(tmp_path, pipeline="unlearn-erfm")
        with pytest.raises(harness.DependencyError, match="learn"):
            harness.run(spec)

    def test_invert_without_unlearn_rejected(self, learned_run):
        spec, _ = learned_run
        with pytest.raises(harness.DependencyError, match="unlearn"):
            harness.run(spec.with_pipeline("invert"))

    def test_unlearn_then_invert_runs(self, learned_run):
        spec, _ = learned_run
        art_u = harness.run(spec.with_pipeline("unlearn-erfm"))
        assert art_u.rows[0].method == "unlearn"
        assert art_u.rows[0].lam == spec.energy.lam
        loss_rows = (art_u.stage_dir / "loss.csv").read_text().splitlines()
        assert loss_rows[0] == "step,loss,weight_mean,ess_frac"
        assert len(loss_rows) == spec.train.steps + 1
        weight_mean, ess_frac = map(float, loss_rows[1].split(",")[2:])
        assert 0.0 < weight_mean < 1.0 and 0.0 < ess_frac <= 1.0
        art_i = harness.run(spec.with_pipeline("invert"))
        assert art_i.rows[0].method == "invert"
        loaded = flow.load_model(art_i.ckpt_path)
        assert len(loaded.chain) == 3  # learn -> unlearn -> invert

    def test_refit_and_finetune_and_retrain(self, learned_run):
        spec, _ = learned_run
        for pipeline, expected_chain in (("refit-ot", 2), ("finetune", 1), ("retrain", 1)):
            art = harness.run(spec.with_pipeline(pipeline))
            assert len(flow.load_model(art.ckpt_path).chain) == expected_chain

    def test_sweep_produces_one_artifact_per_lam(self, learned_run):
        spec, _ = learned_run
        arts = harness.run(spec.with_pipeline("sweep-lambda", lambda_grid=[1.0, 5.0]))
        assert [a.rows[0].lam for a in arts] == [1.0, 5.0]
        assert all(a.stage_dir.exists() for a in arts)

    def test_classifier_energy_pipeline(self, tmp_path):
        spec = tiny_spec(
            tmp_path,
            energy={"kind": "classifier", "lam": 5.0},
            train={"steps": 30, "batch": 64, "integration_steps": 5,
                   "transport_integration_steps": 5},
        )
        harness.run(spec)
        art = harness.run(spec.with_pipeline("unlearn-erfm"))
        assert (art.stage_dir / "ckpt.bin").exists()
        assert ( _classifier_dir(spec) / "classifier.bin").exists()


def _classifier_dir(spec):
    from pathlib import Path

    return Path(spec.out) / "classifier"


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestClassifierCache:
    @pytest.mark.parametrize("change", [{"seed": 1}, {"data_n": 1024}], ids=["seed", "data_n"])
    def test_a_different_key_retrains(self, tmp_path, change):
        first = tiny_spec(tmp_path)
        harness.run(first)
        clf = _classifier_dir(first) / "classifier.bin"
        before = _sha256(clf)
        second = tiny_spec(tmp_path, **change)
        harness.run(second)
        assert _sha256(clf) != before
        meta = yaml.safe_load((_classifier_dir(second) / "meta.yaml").read_text())
        assert {k: meta.get(k) for k in ("benchmark", "seed", "data_n")} == {
            "benchmark": second.benchmark, "seed": second.seed, "data_n": second.data_n}

    def test_the_same_key_loads_once_per_stage_and_never_trains(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path, energy={"kind": "classifier", "lam": 5.0})
        harness.run(spec)
        clf = _classifier_dir(spec) / "classifier.bin"
        before = _sha256(clf)

        def refuse(*args, **kwargs):
            raise AssertionError("the cached classifier was trained again")

        loads = []
        load = en.load_classifier

        def counted(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(en, "train_classifier", refuse)
        monkeypatch.setattr(en, "load_classifier", counted)
        harness.run(spec)
        harness.run(spec.with_pipeline("unlearn-erfm"))
        # one load each: the unlearn stage's energy and its scores share it
        assert loads == [clf, clf]
        assert _sha256(clf) == before

    def test_a_flipped_sign_bit_retrains_and_every_stage_records_the_digest(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path, energy={"kind": "classifier", "lam": 5.0})
        harness.run(spec)
        clf = _classifier_dir(spec) / "classifier.bin"
        good = clf.read_bytes()
        # the sign bit of the first weight: the last byte of its little-endian float64
        first_weight = len(good) - 8 * en.load_classifier(clf).net.theta.size
        damaged = bytearray(good)
        damaged[first_weight + 7] ^= 0x80
        clf.write_bytes(bytes(damaged))
        trained = []
        train = en.train_classifier
        monkeypatch.setattr(en, "train_classifier", lambda *a, **kw: trained.append(1) or train(*a, **kw))

        art = harness.run(spec.with_pipeline("unlearn-erfm"))
        assert trained == [1]
        assert clf.read_bytes() == good
        meta = yaml.safe_load((_classifier_dir(spec) / "meta.yaml").read_text())
        assert meta["classifier_sha256"] == _sha256(clf)
        assert meta["numpy"] == importlib.metadata.version("numpy")
        assert meta["classifier"] == harness._plain(asdict(en.ClassifierConfig(seed=spec.seed)))
        stage_meta = yaml.safe_load((art.stage_dir / "meta.yaml").read_text())
        assert stage_meta["classifier_sha256"] == _sha256(clf)
        harness.run(spec.with_pipeline("unlearn-erfm"))
        assert trained == [1]

    def test_another_numpy_version_retrains(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path)
        harness.run(spec)
        trained = []
        train = en.train_classifier
        monkeypatch.setattr(en, "train_classifier", lambda *a, **kw: trained.append(1) or train(*a, **kw))
        real = harness._dist_version
        monkeypatch.setattr(harness, "_dist_version", lambda name: "0.0" if name == "numpy" else real(name))
        harness.run(spec)
        assert trained == [1]
        meta = yaml.safe_load((_classifier_dir(spec) / "meta.yaml").read_text())
        assert meta["numpy"] == "0.0"


class TestDeterminismAndSufficiency:
    def test_rerun_reproduces_report_rows(self, tmp_path):
        spec = tiny_spec(tmp_path)
        rows_a = harness.run(spec).rows
        rows_b = harness.run(spec).rows
        for a, b in zip(rows_a, rows_b):
            assert a.mmd_retain == b.mmd_retain
            assert a.forget_rate == b.forget_rate
            assert a.leakage == b.leakage
            assert a.retention_accuracy == b.retention_accuracy
            # timing columns exempt by contract

    def test_config_alone_reproduces_checkpoint_bit_exactly(self, tmp_path):
        spec = tiny_spec(tmp_path)
        artifact = harness.run(spec)
        original = artifact.ckpt_path.read_bytes()
        config_echo = (artifact.stage_dir / "config.yaml").read_text()
        # wipe everything except the echoed config, then re-run from it
        import shutil

        shutil.rmtree(spec.out)
        cfg_path = tmp_path / "replay.yaml"
        cfg_path.write_text(config_echo)
        replay = harness.load_spec(cfg_path)
        replay_art = harness.run(replay)
        assert replay_art.ckpt_path.read_bytes() == original


class TestReportAggregation:
    def row(self, **kw):
        base = dict(
            dataset="circles", method="unlearn", seed=0, lam=5.0,
            mmd_retain=0.01, retention_accuracy=1.0, forget_rate=0.02,
            leakage=0.03, train_time_s=4.0, inference_ms_per_sample=0.05,
        )
        base.update(kw)
        return me.MetricsReport(**base)

    def test_mean_and_std_across_seeds(self):
        rows = [self.row(seed=s, forget_rate=v) for s, v in enumerate((0.02, 0.04, 0.06))]
        agg = harness.report(rows)
        assert len(agg) == 1
        assert agg[0]["forget_rate_mean"] == pytest.approx(0.04)
        assert agg[0]["forget_rate_std"] == pytest.approx(np.std([0.02, 0.04, 0.06]))
        assert agg[0]["n_runs"] == 3

    def test_single_seed_std_zero(self):
        agg = harness.report([self.row()])
        assert agg[0]["forget_rate_std"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(harness.HarnessError):
            harness.report([])

    def test_groups_by_dataset_method_lam(self):
        rows = [
            self.row(method="retrain", lam=None),
            self.row(method="unlearn", lam=0.5),
            self.row(method="unlearn", lam=5.0),
        ]
        agg = harness.report(rows)
        assert len(agg) == 3

    def test_markdown_table_contains_all_groups(self):
        rows = [self.row(method="retrain", lam=None), self.row()]
        md = harness.format_markdown(harness.report(rows))
        assert "retrain" in md and "unlearn" in md
        assert md.count("|") > 10

    def test_incompatible_schema_rejected(self, tmp_path):
        bad = tmp_path / "report.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(harness.HarnessError, match="schema"):
            harness.read_report_csv(bad)

    def finished_stage(self, root, cells) -> Path:
        """A stage directory ``cflow report`` reads: a report.csv of one
        good row and then ``cells``, beside a ckpt.bin."""
        stage = root / "run" / "unlearn"
        stage.mkdir(parents=True)
        harness.write_report_csv(stage / "report.csv", [self.row()])
        with (stage / "report.csv").open("a", newline="") as fh:
            csv.writer(fh).writerow(cells)
        (stage / "ckpt.bin").write_bytes(b"")
        return stage / "report.csv"

    @pytest.mark.parametrize("change", [-1, 1], ids=["short-row", "long-row"])
    def test_a_row_with_the_wrong_cell_count_names_its_line(self, tmp_path, capsys, change):
        good = self.row().to_row()
        cells = good[:change] if change < 0 else [*good, "extra"]
        report = self.finished_stage(tmp_path, cells)
        out = tmp_path / "summary.csv"
        assert cli.main(["report", "--runs", str(tmp_path / "run"), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == f"error: {report}, line 3: {len(cells)} cells, not {len(good)}\n"
        assert not out.exists()

    def test_an_empty_report_names_its_file(self, tmp_path, capsys):
        report = self.finished_stage(tmp_path, [])
        report.write_bytes(b"")
        out = tmp_path / "summary.csv"
        assert cli.main(["report", "--runs", str(tmp_path / "run"), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {report}: empty report, no header row\n"
        assert not out.exists()

    @pytest.mark.parametrize("column, text, reason", [
        ("mmd_retain", "abc", "mmd_retain: could not convert string to float: 'abc'"),
        ("seed", "1.5", "seed: invalid literal for int() with base 10: '1.5'"),
        ("forget_rate", "1.5", "forget_rate must lie in [0, 1], got 1.5"),
        ("mmd_retain", "nan", "mmd_retain must be non-negative, got nan"),
    ], ids=["unparsed-float", "unparsed-int", "refused-rate", "refused-nan"])
    def test_a_bad_cell_names_its_line_and_column(self, tmp_path, capsys, column, text, reason):
        cells = self.row().to_row()
        cells[me.MetricsReport.header().index(column)] = text
        report = self.finished_stage(tmp_path, cells)
        out = tmp_path / "summary.csv"
        assert cli.main(["report", "--runs", str(tmp_path / "run"), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {report}, line 3, column {reason}\n"
        assert not out.exists()

    def test_report_out_with_the_markdown_suffix_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a report was read before --out was checked")

        self.finished_stage(tmp_path, self.row(seed=1).to_row())
        monkeypatch.setattr(harness, "read_report_csv", fail)
        out = tmp_path / "summary.md"
        assert cli.main(["report", "--runs", str(tmp_path / "run"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err and err.count("\n") == 1
        assert not out.exists()


class TestCli:
    def test_datasets_export(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        rc = cli.main(["datasets", "export", "--name", "circles", "--n", "50",
                       "--seed", "3", "--out", str(out)])
        assert rc == 0
        pts, labels = ds.load_csv(out)
        data = ds.generate("circles", 50, 3)
        np.testing.assert_array_equal(pts, data.points)
        np.testing.assert_array_equal(labels, data.labels)

    def test_train_sample_traj_eval_report(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        spec = tiny_spec(tmp_path)
        with cfg.open("w") as fh:
            yaml.safe_dump(harness._plain(spec.to_dict()), fh)
        assert cli.main(["train", "--config", str(cfg)]) == 0

        ckpt = tmp_path / "run" / "learn" / "ckpt.bin"
        samples = tmp_path / "samples.csv"
        assert cli.main(["sample", "--ckpt", str(ckpt), "--n", "64",
                         "--steps", "5", "--seed", "1", "--out", str(samples)]) == 0
        pts, _ = ds.load_csv(samples)
        assert pts.shape == (64, 2)

        traj = tmp_path / "traj.csv"
        assert cli.main(["traj", "--ckpt", str(ckpt), "--n", "16", "--steps", "5",
                         "--snapshots", "3", "--out", str(traj)]) == 0
        header = traj.read_text().splitlines()[0]
        assert header == "snapshot_index,t,x,y"

        report = tmp_path / "report.csv"
        clf = tmp_path / "run" / "classifier" / "classifier.bin"
        assert clf.exists()
        assert cli.main(["eval", "run", "--ckpt", str(ckpt), "--dataset", "circles",
                         "--classifier", str(clf), "--out", str(report),
                         "--n", "64", "--seeds", "0", "1"]) == 0
        rows = harness.read_report_csv(report)
        assert len(rows) == 2

        consolidated = tmp_path / "summary.csv"
        assert cli.main(["report", "--runs", str(tmp_path / "run"),
                         "--out", str(consolidated)]) == 0
        assert consolidated.exists()
        assert consolidated.with_suffix(".md").exists()

    def test_energy_eval(self, tmp_path):
        pts_csv = tmp_path / "pts.csv"
        cli.main(["datasets", "export", "--name", "circles", "--n", "20",
                  "--seed", "0", "--out", str(pts_csv)])
        espec = tmp_path / "energy.yaml"
        espec.write_text("kind: analytic\nbenchmark: circles\nlam: 5.0\n")
        out = tmp_path / "scored.csv"
        assert cli.main(["energy", "eval", "--spec", str(espec),
                         "--points", str(pts_csv), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,F,weight"
        assert len(lines) == 21

    def test_energy_eval_classifier_spec(self, tmp_path):
        data = ds.generate("circles", 200, seed=0)
        clf = en.train_classifier(data, en.ClassifierConfig(steps=20, batch=32, hidden=(8,)))
        ckpt = tmp_path / "clf.bin"
        save_mlp(clf.net, ckpt, kind="classifier:circles")
        pts_csv = tmp_path / "pts.csv"
        ds.export_csv(data, pts_csv)
        espec = tmp_path / "energy.yaml"
        espec.write_text(f"kind: classifier\nclassifier_ckpt: {ckpt}\nlam: 2.0\n")
        out = tmp_path / "scored.csv"
        assert cli.main(["energy", "eval", "--spec", str(espec),
                         "--points", str(pts_csv), "--out", str(out)]) == 0
        weights = np.loadtxt(out, delimiter=",", skiprows=1)[:, 3]
        np.testing.assert_array_equal(weights, en.ClassifierEnergy(clf, 2.0).weight(data.points))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "energy spec must be a non-empty mapping"),
            ("- kind\n- analytic\n", "energy spec must be a non-empty mapping"),
            ("kind: region\nbenchmark: circles\n", "energy.kind must be analytic|classifier"),
            ("kind: analytic\nlam: 5.0\n", "energy kind 'analytic' needs a 'benchmark' key"),
            ("benchmark: spirals\n", "unknown benchmark 'spirals'"),
            ("kind: classifier\nlam: 5.0\n", "energy kind 'classifier' needs a 'classifier_ckpt' key"),
            ("kind: classifier\nclassifier_ckpt: 5\n",
             "energy.yaml: classifier_ckpt must be a path string, got 5"),
            ("kind: analytic\nbenchmark: circles\nlam: 0\n", "energy.lam must be positive"),
            ("benchmark: circles\nsharpness: steep\n", "energy.sharpness must be a finite number"),
        ],
        ids=["empty", "non-mapping", "unknown-kind", "missing-benchmark", "unknown-benchmark",
             "missing-classifier-ckpt", "non-string-classifier-ckpt", "non-positive-lam",
             "non-numeric-sharpness"],
    )
    def test_malformed_energy_spec_exit_code(self, tmp_path, capsys, text, message):
        pts_csv = tmp_path / "pts.csv"
        pts_csv.write_text("x,y\n0.5,0.5\n")
        espec = tmp_path / "energy.yaml"
        espec.write_text(text)
        assert cli.main(["energy", "eval", "--spec", str(espec), "--points", str(pts_csv),
                         "--out", str(tmp_path / "scored.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "scored.csv").exists()

    def test_missing_dependency_exit_code(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        spec = tiny_spec(tmp_path)
        with cfg.open("w") as fh:
            yaml.safe_dump(harness._plain(spec.to_dict()), fh)
        assert cli.main(["unlearn", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "command, train, code",
        [("refit", {"coupling": "independent"}, 2), ("unlearn", {}, 3)],
        ids=["config-error", "missing-stage"],
    )
    def test_a_refused_stage_leaves_no_run_directory(self, tmp_path, capsys, command, train, code):
        good = tiny_config(tmp_path)
        cfg = write_config(tmp_path / "exp.yaml", {**good, "train": {**good["train"], **train}})
        assert cli.main([command, "--config", str(cfg)]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_failed_stage_leaves_no_checkpoint(self, tmp_path, capsys, monkeypatch):
        # ckpt.bin marks a finished stage: a rerun that fails after training
        # must not leave the old checkpoint, or a new one, for invert to take
        cfg = tmp_path / "exp.yaml"
        with cfg.open("w") as fh:
            yaml.safe_dump(harness._plain(tiny_spec(tmp_path).to_dict()), fh)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert cli.main(["unlearn", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "unlearn" / "ckpt.bin"
        assert ckpt.exists()

        def failing(*args, **kwargs):
            raise ValueError("evaluation failed")

        monkeypatch.setattr(me, "evaluate_model", failing)
        assert cli.main(["unlearn", "--config", str(cfg)]) == 4
        assert not ckpt.exists()
        assert cli.main(["invert", "--config", str(cfg)]) == 3
        assert "prior stage 'unlearn'" in capsys.readouterr().err
        # the failed stage's stale report.csv is not a finished stage's report
        assert (tmp_path / "run" / "unlearn" / "report.csv").exists()
        summary = tmp_path / "summary.csv"
        assert cli.main(["report", "--runs", str(tmp_path / "run"), "--out", str(summary)]) == 0
        assert [row["method"] for row in report_rows(summary)] == ["learn"]

    def test_sweep_is_reported_once_per_eval_seed(self, tmp_path):
        cfg = write_config(tmp_path / "exp.yaml",
                           tiny_config(tmp_path, eval_seeds=[0, 1], lambda_grid=[0.5, 5.0]))
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        summary = tmp_path / "summary.csv"
        assert cli.main(["report", "--runs", str(tmp_path / "run"), "--out", str(summary)]) == 0
        rows = {(row["method"], row["lam"]): row["n_runs"] for row in report_rows(summary)}
        assert rows == {("learn", ""): "2", ("unlearn", "0.5"): "2", ("unlearn", "5.0"): "2"}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"train": {"lr": -1}}, "train.lr must be positive, got -1"),
            ({"train": {"hidden": [0]}}, "train.hidden[0] must be >= 1, got 0"),
            ({"train": {"steps": "x"}}, "train.steps must be an integer, got 'x'"),
            ({"train": {"batch": 32.0}}, "train.batch must be an integer, got 32.0"),
            ({"train": {"steps": True}}, "train.steps must be an integer, got True"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"lambda_grid": [-1]}, "lambda_grid[0] must be positive, got -1"),
            ({"source_steps": -2}, "source_steps must be >= 0, got -2"),
            ({"name": ["a"]}, "name must be a string, got ['a']"),
            ({"eval_n": me.MAX_EVAL_N + 1}, f"eval_n must be <= {me.MAX_EVAL_N}"),
            ({"data_n": 10**30}, f"data_n must be <= {me.MAX_ROWS}, got {10**30}"),
            ({"source_pool": 10**30}, f"source_pool must be <= {me.MAX_ROWS}, got {10**30}"),
            ({"train": {"batch": 10**30}}, f"train.batch must be <= {me.MAX_ROWS}, got {10**30}"),
            ("name: [unclosed\n", "malformed YAML"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["lr", "hidden", "steps-str", "batch-float", "steps-bool", "seed-negative",
             "seed-float", "lambda_grid", "source_steps", "name", "eval_n", "data_n",
             "source_pool", "batch", "malformed-yaml", "cli-seed"],
    )
    def test_config_error_leaves_the_stage_untouched(self, learned_cli_run, tmp_path, capsys,
                                                     change, message):
        run = tmp_path / "run"
        shutil.copytree(learned_cli_run, run)
        before = read_tree(run / "learn")
        good = tiny_config(tmp_path)
        cfg = tmp_path / "bad.yaml"
        args = []
        if isinstance(change, str):
            cfg.write_text(change)
        elif isinstance(change, list):
            write_config(cfg, good)
            args = change
        else:
            train = {**good["train"], **change.pop("train", {})}
            write_config(cfg, {**good, **change, "train": train})
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and err.count("\n") == 1
        assert read_tree(run / "learn") == before
        assert "ckpt.bin" in before

    @settings(max_examples=8, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kept=st.floats(0.0, 1.0, exclude_max=True))
    def test_unlearn_on_a_truncated_prior_leaves_its_stage_unchanged(self, unlearned_cli_run, tmp_path,
                                                                     capsys, kept):
        run = tmp_path / "run"
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(unlearned_cli_run, run)
        cfg = write_config(tmp_path / "exp.yaml", tiny_config(tmp_path))
        prior = run / "learn" / "ckpt.bin"
        data = prior.read_bytes()
        prior.write_bytes(data[:int(kept * len(data))])
        before = read_tree(run / "unlearn")
        capsys.readouterr()
        assert cli.main(["unlearn", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert read_tree(run / "unlearn") == before
        assert "ckpt.bin" in before

    @pytest.mark.parametrize(
        "command, coupling, message",
        [
            ("refit", "independent",
             "train.coupling: independent does not fit refit-ot, which requires the ot coupling"),
            ("unlearn", "ot",
             "train.coupling: ot does not fit unlearn-erfm, which pairs endpoints independently from q0"),
        ],
        ids=["refit-independent", "unlearn-ot"],
    )
    def test_coupling_that_does_not_fit_the_stage_is_a_config_error(
            self, learned_cli_run, tmp_path, capsys, monkeypatch, command, coupling, message):
        def fail(*args, **kwargs):
            raise AssertionError("the parent checkpoint was read")

        monkeypatch.setattr(flow, "load_model", fail)
        run = tmp_path / "run"
        shutil.copytree(learned_cli_run, run)
        before = read_tree(run)
        good = tiny_config(tmp_path)
        cfg = write_config(tmp_path / "bad.yaml", {**good, "train": {**good["train"], "coupling": coupling}})
        capsys.readouterr()
        assert cli.main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert read_tree(run) == before

    def test_eval_run_rejects_an_oversized_n(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eval run did work before checking --n")

        # --n is checked before the model, the classifier or the timing draw
        monkeypatch.setattr(flow, "load_model", fail)
        monkeypatch.setattr(en, "load_classifier", fail)
        monkeypatch.setattr(me, "measure_inference_ms", fail)
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "run", "--ckpt", "model.bin", "--dataset", "circles",
                         "--classifier", "clf.bin", "--out", str(out),
                         "--n", str(me.MAX_EVAL_N + 1)]) == 2
        err = capsys.readouterr().err
        assert f"n_eval must lie in [1, {me.MAX_EVAL_N}]" in err and err.count("\n") == 1
        assert not out.exists()

    def test_eval_run_scores_like_the_stage_epilogue(self, tmp_path):
        spec = tiny_spec(tmp_path, energy={"kind": "classifier", "lam": 5.0}, eval_seeds=[0, 1])
        harness.run(spec)
        art = harness.run(spec.with_pipeline("unlearn-erfm"))
        out = tmp_path / "eval.csv"
        assert cli.main(["eval", "run", "--ckpt", str(art.ckpt_path), "--dataset", spec.benchmark,
                         "--classifier", str(_classifier_dir(spec) / "classifier.bin"),
                         "--out", str(out), "--n", str(spec.eval_n), "--seeds", "0", "1"]) == 0
        scores = ("seed", "mmd_retain", "retention_accuracy", "forget_rate", "leakage")

        def cells(path):
            return [{k: row[k] for k in scores} for row in report_rows(path)]

        # the CSV cells are Python reprs, so equal text is equal bits
        assert cells(out) == cells(art.stage_dir / "report.csv")

    @pytest.mark.parametrize("command", ["eval-run", "energy-eval"])
    def test_velocity_checkpoint_is_not_a_classifier(self, tmp_path, capsys, command):
        velocity = tmp_path / "velocity.bin"
        save_mlp(velocity_mlp(seed=0), velocity, kind="velocity")
        out = tmp_path / "out.csv"
        if command == "eval-run":
            model = tmp_path / "model.bin"
            flow.save_model(flow.FlowModel(velocity_mlp(seed=0), n_steps=3), model)
            argv = ["eval", "run", "--ckpt", str(model), "--dataset", "circles",
                    "--classifier", str(velocity), "--n", "16"]
        else:
            points = tmp_path / "pts.csv"
            points.write_text("x,y\n0.5,0.5\n")
            espec = tmp_path / "energy.yaml"
            espec.write_text(f"kind: classifier\nclassifier_ckpt: {velocity}\n")
            argv = ["energy", "eval", "--spec", str(espec), "--points", str(points)]
        assert cli.main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {velocity}: checkpoint kind 'velocity' is not a classifier\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--n", "0"], f"--n must lie in [1, {me.MAX_ROWS}], got 0"),
            (["sample", "--n", "-3"], f"--n must lie in [1, {me.MAX_ROWS}], got -3"),
            (["sample", "--n", str(10**31)], f"--n must lie in [1, {me.MAX_ROWS}], got {10**31}"),
            (["sample", "--steps", "0"], "--steps must be >= 1, got 0"),
            (["traj", "--n", "0"], f"--n must lie in [1, {me.MAX_ROWS}], got 0"),
            (["traj", "--n", str(10**31)], f"--n must lie in [1, {me.MAX_ROWS}], got {10**31}"),
            (["traj", "--steps", "0"], "--steps must be >= 1, got 0"),
            (["datasets", "export", "--name", "circles", "--n", "0"],
             f"--n must lie in [1, {me.MAX_ROWS}], got 0"),
            (["datasets", "export", "--name", "circles", "--n", str(10**31)],
             f"--n must lie in [1, {me.MAX_ROWS}], got {10**31}"),
            (["traj", "--snapshots", "1"], "--snapshots must lie in [2, 11], got 1"),
            (["traj", "--steps", "3", "--snapshots", "50"], "--snapshots must lie in [2, 4], got 50"),
            (["eval", "run", "--dataset", "circles", "--classifier", "clf.bin", "--seeds", "0", "-1"],
             "--seeds must be >= 0, got -1"),
            (["sample", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["traj", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["datasets", "export", "--name", "circles", "--n", "10", "--seed", "-1"],
             "--seed must be >= 0, got -1"),
        ],
        ids=["sample-n-0", "sample-n-negative", "sample-n-huge", "sample-steps-0", "traj-n-0",
             "traj-n-huge", "traj-steps-0", "export-n-0", "export-n-huge", "traj-snapshots-1",
             "traj-snapshots-past-steps", "eval-seeds-negative", "sample-seed-negative",
             "traj-seed-negative", "export-seed-negative"],
    )
    def test_size_flags_are_config_errors(self, tmp_path, capsys, monkeypatch, argv, message):
        def fail(*args, **kwargs):
            raise AssertionError("a size flag went past its check")

        # nothing is read or drawn before the sizes are checked
        monkeypatch.setattr(flow, "load_model", fail)
        monkeypatch.setattr(ds, "generate", fail)
        out = tmp_path / "out.csv"
        ckpt = [] if argv[0] == "datasets" else ["--ckpt", str(tmp_path / "model.bin")]
        assert cli.main([*argv, *ckpt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("name: x\nbenchmark: circles\npipeline: learn\nout: /tmp/x\nbogus: 1\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        assert cli.main(["sample", "--ckpt", str(tmp_path / "none.bin"),
                         "--out", str(tmp_path / "s.csv")]) == 4

    def test_truncated_model_exit_code(self, tmp_path, capsys):
        ckpt = tmp_path / "model.bin"
        model = flow.FlowModel(velocity_mlp(seed=0), n_steps=3)
        flow.save_model(model, ckpt)
        ckpt.write_bytes(ckpt.read_bytes()[:14])
        assert cli.main(["sample", "--ckpt", str(ckpt), "--out", str(tmp_path / "s.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: truncated checkpoint") and err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_training_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        spec = tiny_spec(tmp_path, train={"steps": 5, "batch": 16, "lr": 1e300})
        with cfg.open("w") as fh:
            yaml.safe_dump(harness._plain(spec.to_dict()), fh)
        assert cli.main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite values") and err.count("\n") == 1

    def test_suppressed_batch_exit_code(self, tmp_path, capsys, monkeypatch):
        def suppressed(*args, **kwargs):
            raise flow.FullySuppressedBatchError("batch weight sum 0.000e+00 below 1e-12")

        monkeypatch.setattr(flow, "train", suppressed)
        cfg = tmp_path / "exp.yaml"
        with cfg.open("w") as fh:
            yaml.safe_dump(harness._plain(tiny_spec(tmp_path).to_dict()), fh)
        assert cli.main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: batch weight sum") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("x,y,label\n0.5,0.5,retain\n0.25\n", "line 3: expected 3 fields, got 1"),
            ("x,y,label\n0.5,0.5,keep\n", "line 2: unknown label 'keep'"),
            ("x,y\n0.5,zero\n", "line 2: coordinates"),
            ("0.1,0.2\n0.3,0.4\n0.5,0.6\n", "line 1: expected an x,y[,label] header, got '0.1,0.2'"),
            ("y,x\n0.5,0.25\n", "line 1: expected an x,y[,label] header, got 'y,x'"),
            ("x,y,z\n0.5,0.25,1.0\n", "line 1: expected an x,y[,label] header, got 'x,y,z'"),
        ],
        ids=["short-row", "unknown-label", "bad-number", "headerless", "swapped-header", "third-column"],
    )
    def test_malformed_points_csv_exit_code(self, tmp_path, capsys, rows, message):
        pts_csv = tmp_path / "pts.csv"
        pts_csv.write_text(rows)
        espec = tmp_path / "energy.yaml"
        espec.write_text("kind: analytic\nbenchmark: circles\nlam: 5.0\n")
        assert cli.main(["energy", "eval", "--spec", str(espec), "--points", str(pts_csv),
                         "--out", str(tmp_path / "scored.csv")]) == 4
        err = capsys.readouterr().err
        assert f"{pts_csv}, {message}" in err and err.count("\n") == 1

    def test_a_points_csv_that_is_not_utf8_names_its_file(self, tmp_path, capsys):
        pts_csv = tmp_path / "pts.csv"
        pts_csv.write_bytes(b"x,y\n0.5,\xff0.25\n")
        espec = tmp_path / "energy.yaml"
        espec.write_text("kind: analytic\nbenchmark: circles\nlam: 5.0\n")
        assert cli.main(["energy", "eval", "--spec", str(espec), "--points", str(pts_csv),
                         "--out", str(tmp_path / "scored.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pts_csv}: not UTF-8 text") and err.count("\n") == 1


# a fresh interpreter running the command line, since this process has
# imported scipy already; ``flow.ot_solver`` loads its solver on first use
BLOCK_SOLVER = "import sys; sys.modules['scipy'] = None\n"
FRESH_CLI = "import sys\nfrom cflow import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
# records the threads that load a scipy module: a finder at the head of
# sys.meta_path is asked only for modules not yet in sys.modules
WATCH_SCIPY = textwrap.dedent("""
    import sys, threading

    class Watch:
        threads = set()

        @classmethod
        def find_spec(cls, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                cls.threads.add(threading.get_ident())

    sys.meta_path.insert(0, Watch)
""")


def run_python(code: str, *argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=600)


class TestScipyOnlyForOt:
    def test_only_ot_training_imports_scipy_and_on_the_calling_thread(self, tmp_path):
        cfg = write_config(tmp_path / "exp.yaml", tiny_config(tmp_path))
        run = tmp_path / "run"
        code = WATCH_SCIPY + textwrap.dedent(f"""
            import cflow, cflow.cli
            from cflow.cli import main

            def cflow_(*argv):
                if main(list(argv)) != 0:
                    sys.exit(f"cflow {{argv[0]}} failed")

            cfg, run = {str(cfg)!r}, {str(run)!r}
            cflow_("train", "--config", cfg)
            cflow_("unlearn", "--config", cfg)
            ckpt = run + "/unlearn/ckpt.bin"
            cflow_("sample", "--ckpt", ckpt, "--n", "64", "--steps", "5", "--out", run + "/s.csv")
            cflow_("traj", "--ckpt", ckpt, "--n", "16", "--steps", "5", "--out", run + "/t.csv")
            cflow_("eval", "run", "--ckpt", ckpt, "--dataset", "circles", "--classifier",
                   run + "/classifier/classifier.bin", "--n", "128", "--seeds", "0", "--out", run + "/r.csv")
            before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
            # flow.train itself, as a library caller runs it; the OT jobs run on the pool
            from cflow import datasets, flow
            source = flow.ModelSampler(flow.load_model(run + "/learn/ckpt.bin"), seed=4)
            flow.train(flow.TrainConfig(steps=20, batch=32, hidden=(8,)), source,
                       datasets.generate("circles", 64, 0), mode="refit-ot")
            print(before, "scipy.optimize" in sys.modules, Watch.threads == {{threading.get_ident()}})
        """)
        out = run_python(code)
        assert out.returncode == 0, out.stderr
        # the OT jobs solved with the compiled solver alone: scipy.optimize never ran
        assert out.stdout.splitlines()[-1] == "[] False True", out.stdout
        assert yaml.safe_load((run / "unlearn" / "meta.yaml").read_text())["scipy"] is not None

    def test_a_refit_run_leaves_scipy_optimize_unimported(self, learned_cli_run, tmp_path):
        shutil.copytree(learned_cli_run, tmp_path / "run")
        cfg = write_config(tmp_path / "exp.yaml", tiny_config(tmp_path))
        code = textwrap.dedent(f"""
            import sys
            from cflow.cli import main

            if main(["refit", "--config", {str(cfg)!r}]) != 0:
                sys.exit("cflow refit failed")
            print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
        """)
        out = run_python(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]", out.stdout
        assert (tmp_path / "run" / "refit" / "ckpt.bin").is_file()

    def test_a_missing_solver_refuses_refit_before_it_changes_a_file(self, learned_cli_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(learned_cli_run, run)
        cfg = write_config(tmp_path / "exp.yaml", tiny_config(tmp_path))
        assert cli.main(["refit", "--config", str(cfg)]) == 0
        before = read_tree(run)

        out = run_python(BLOCK_SOLVER + FRESH_CLI, "refit", "--config", cfg)
        assert out.returncode == 4, out.stderr
        assert out.stderr.startswith("error: the ot coupling needs scipy") and out.stderr.count("\n") == 1
        assert read_tree(run) == before

        # a stage that does not solve OT runs without it
        out = run_python(BLOCK_SOLVER + FRESH_CLI, "train", "--config", cfg)
        assert out.returncode == 0, out.stderr

    def test_the_loaded_solver_assigns_as_the_public_one(self):
        # a fresh interpreter, so that scipy.optimize is imported only after every solve
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from cflow import flow

            rng = np.random.default_rng(20)
            costs = [rng.normal(size=shape) for shape in [(1, 1), (7, 7), (64, 64), (5, 9), (9, 5)]]
            costs += [rng.integers(0, k, size=(n, n)).astype(float) for n, k in [(8, 2), (32, 3), (64, 4)]]
            costs += [np.zeros((6, 6)), np.ones((4, 7))]
            loaded = [flow.ot_solver()(c) for c in costs]
            alone = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

            from scipy.optimize import linear_sum_assignment
            public = [linear_sum_assignment(c) for c in costs]
            same = all(np.array_equal(a, b) for x, y in zip(loaded, public) for a, b in zip(x, y))
            print(alone, same, len(costs))
        """)
        out = run_python(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[] True 10", out.stdout

    def test_a_missed_lookup_falls_back_to_the_public_solver(self, monkeypatch):
        from scipy.optimize import linear_sum_assignment

        cfg = flow.TrainConfig(steps=12, batch=32, hidden=(8,))
        target = ds.generate("circles", 256, 0)

        def refit():
            source = ds.EmpiricalSampler(np.random.default_rng(3).normal(size=(300, 2)), seed=[3, 1])
            x0, x1 = np.random.default_rng(7).normal(size=(2, 48, 2))
            return flow.ot_coupling(x0, x1), flow.train(cfg, source, target, mode="refit-ot")

        flow.ot_solver.cache_clear()
        loaded_coupling, loaded = refit()
        assert flow._lsap_spec() is not None
        try:
            flow.ot_solver.cache_clear()
            monkeypatch.setattr(flow, "EXTENSION_SUFFIXES", [])  # the extension's file is not found
            assert flow._lsap_spec() is None
            public_coupling, public = refit()
            assert flow.ot_solver() is linear_sum_assignment
        finally:
            flow.ot_solver.cache_clear()

        np.testing.assert_array_equal(public_coupling.x1, loaded_coupling.x1)
        assert public_coupling.cost == loaded_coupling.cost
        assert public.loss_trace == loaded.loss_trace
        np.testing.assert_array_equal(public.field.theta, loaded.field.theta)
