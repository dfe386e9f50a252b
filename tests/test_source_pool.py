"""The model-source pool cache: ``<out>/source_pool/<prior stage dir>.bin``.

A pool of prior-model draws is a pure function of the prior's ``ckpt.bin``,
the seed, ``source_pool``, ``source_steps`` and the numpy version. A stage
reads it when the file holds exactly that key, the data's digest and the
expected number of values; anything else is a miss that draws the pool
again and replaces the file. Either way the stage writes the same bytes.
"""

import hashlib

import pytest
import yaml

from cflow import cli, flow, harness

BASE = {
    "name": "pool",
    "benchmark": "circles",
    "seed": 0,
    "data_n": 256,
    "train": {"steps": 8, "batch": 32, "hidden": [16, 16], "integration_steps": 3,
              "transport_integration_steps": 4},
    "unlearn_source": "model",
    "source_pool": 512,
    "source_steps": 3,
    "lambda_grid": [0.5, 1000.0],
    "eval_seeds": [0],
    "eval_n": 64,
}
STAGE_FILES = ("ckpt.bin", "loss.csv", "traj.csv")


@pytest.fixture
def draws(monkeypatch):
    """Counts the calls of ``flow.ModelSampler.sample``."""
    calls = []
    original = flow.ModelSampler.sample

    def spy(self, n):
        calls.append(n)
        return original(self, n)

    monkeypatch.setattr(flow.ModelSampler, "sample", spy)
    return calls


def spec_for(tmp_path, pipeline="learn", **overrides):
    return harness.spec_from_dict({**BASE, "pipeline": pipeline, "out": str(tmp_path / "run"), **overrides})


def stage_bytes(stage_dir) -> dict[str, bytes]:
    return {name: (stage_dir / name).read_bytes() for name in STAGE_FILES}


def meta(stage_dir) -> dict:
    return yaml.safe_load((stage_dir / "meta.yaml").read_text())


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_second_refit_reads_the_pool_and_writes_the_same_bytes(tmp_path, draws):
    spec = spec_for(tmp_path)
    harness.run(spec)
    first = harness.run(spec.with_pipeline("refit-ot"))
    assert draws == [512]
    before = stage_bytes(first.stage_dir)
    pool = tmp_path / "run" / "source_pool" / "learn.bin"
    assert pool.stat().st_size == 64 + 8 * 512 * 2

    second = harness.run(spec.with_pipeline("refit-ot"))
    assert draws == [512]
    assert stage_bytes(second.stage_dir) == before
    assert sorted(p.name for p in pool.parent.iterdir()) == ["learn.bin"]


def test_meta_records_the_prior_checkpoint_and_the_pool(tmp_path):
    spec = spec_for(tmp_path)
    learn = harness.run(spec)
    assert "prior_ckpt_sha256" not in meta(learn.stage_dir)
    refit = harness.run(spec.with_pipeline("refit-ot"))
    first = meta(refit.stage_dir)
    assert first["prior_ckpt_sha256"] == sha256(learn.ckpt_path)
    assert first["source_pool_sha256"] == hashlib.sha256(
        (tmp_path / "run" / "source_pool" / "learn.bin").read_bytes()[64:]).hexdigest()
    assert first["source_pool_cache"] == "drawn"
    second = meta(harness.run(spec.with_pipeline("refit-ot")).stage_dir)
    assert second == {**first, "source_pool_cache": "read"}
    # a prior without a pool: the stage records the prior alone
    finetune = meta(harness.run(spec.with_pipeline("finetune")).stage_dir)
    assert finetune["prior_ckpt_sha256"] == first["prior_ckpt_sha256"]
    assert "source_pool_cache" not in finetune and "source_pool_sha256" not in finetune


def test_a_sweep_and_an_unlearn_on_one_learn_draw_once(tmp_path, draws):
    spec = spec_for(tmp_path)
    harness.run(spec)
    arms = harness.run(spec.with_pipeline("sweep-lambda"))
    assert draws == [512]
    assert [meta(arm.stage_dir)["source_pool_cache"] for arm in arms] == ["drawn", "read"]
    harness.run(spec.with_pipeline("unlearn-erfm"))
    assert draws == [512]
    # invert draws from the unlearned model: a pool of its own
    harness.run(spec.with_pipeline("invert"))
    assert draws == [512, 512]
    assert sorted(p.name for p in (tmp_path / "run" / "source_pool").iterdir()) == ["learn.bin", "unlearn.bin"]


def test_a_new_prior_checkpoint_draws_again(tmp_path, draws):
    spec = spec_for(tmp_path)
    harness.run(spec)
    harness.run(spec.with_pipeline("refit-ot"))
    # learn again under another seed; the refit keeps its own seed, so only
    # the prior's checkpoint differs from the key the pool was stored under
    harness.run(spec.with_pipeline("learn", seed=3))
    refit = harness.run(spec.with_pipeline("refit-ot"))
    assert draws == [512, 512]
    assert meta(refit.stage_dir)["source_pool_cache"] == "drawn"
    assert meta(refit.stage_dir)["prior_ckpt_sha256"] == sha256(tmp_path / "run" / "learn" / "ckpt.bin")


@pytest.mark.parametrize("field, value", [("seed", 1), ("source_pool", 256), ("source_steps", 2)])
def test_each_spec_field_of_the_key_draws_again(tmp_path, draws, field, value):
    learn = spec_for(tmp_path)
    harness.run(learn)
    harness.run(learn.with_pipeline("refit-ot"))
    harness.run(learn.with_pipeline("refit-ot", **{field: value}))
    assert len(draws) == 2


def test_another_numpy_version_draws_again(tmp_path, draws, monkeypatch):
    spec = spec_for(tmp_path)
    harness.run(spec)
    harness.run(spec.with_pipeline("refit-ot"))
    real = harness._dist_version
    monkeypatch.setattr(harness, "_dist_version", lambda name: "0.0" if name == "numpy" else real(name))
    harness.run(spec.with_pipeline("refit-ot"))
    assert len(draws) == 2


def truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def grow(path):
    path.write_bytes(path.read_bytes() + b"\0")


def flip(offset):
    def change(path):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
    return change


def replace_by_a_directory(path):
    path.unlink()
    (path / "inside").mkdir(parents=True)


DAMAGE = {
    "truncated": truncate,
    "grown": grow,
    "key-byte": flip(0),
    "digest-byte": flip(40),
    "data-byte": flip(64 + 8 * 100 + 3),
    "directory": replace_by_a_directory,
}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_pool_is_drawn_again_with_the_same_stage_outputs(tmp_path, draws, capsys, damage):
    config = tmp_path / "pool.yaml"
    config.write_text(yaml.safe_dump({**BASE, "pipeline": "learn", "out": str(tmp_path / "run")}))
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["refit", "--config", str(config)]) == 0
    refit = tmp_path / "run" / "refit"
    pool = tmp_path / "run" / "source_pool" / "learn.bin"
    before, stored = stage_bytes(refit), pool.read_bytes()
    DAMAGE[damage](pool)
    capsys.readouterr()

    assert cli.main(["refit", "--config", str(config)]) == 0
    assert len(draws) == 2
    assert stage_bytes(refit) == before
    assert meta(refit)["source_pool_cache"] == "drawn"
    assert "Traceback" not in capsys.readouterr().err
    if damage == "directory":
        # the write cannot replace a directory and leaves it; the stage is done
        assert pool.is_dir() and (pool / "inside").is_dir()
    else:
        assert pool.read_bytes() == stored
        assert cli.main(["refit", "--config", str(config)]) == 0
        assert len(draws) == 2
    assert not list(pool.parent.glob("*.partial"))


def test_per_step_draws_keep_no_pool(tmp_path, draws):
    spec = spec_for(tmp_path, source_pool=0)
    harness.run(spec)
    refit = harness.run(spec.with_pipeline("refit-ot"))
    assert draws and not (tmp_path / "run" / "source_pool").exists()
    assert "source_pool_cache" not in meta(refit.stage_dir)


def test_data_and_gaussian_sources_keep_no_pool(tmp_path):
    spec = spec_for(tmp_path, unlearn_source="data")
    for pipeline in ("learn", "retrain", "finetune", "unlearn-erfm"):
        harness.run(spec.with_pipeline(pipeline))
    assert not (tmp_path / "run" / "source_pool").exists()
