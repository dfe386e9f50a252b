"""The prior-draw store: ``<out>/source_pool/<prior stage dir>[.<use>].bin``.

A stage that runs on a prior chain keeps the seeded rows it pushes through
that chain: the model-source pool (``learn.bin``), the trajectory's base
states (``learn.traj.bin``) and each eval seed's (``learn.eval<seed>.bin``).
Each file is a pure function of the prior's ``ckpt.bin``, the seed stream,
the row count, the step count and the numpy version. A stage reads it when
the file holds exactly that key, the data's digest and the expected number
of values; anything else is a miss that draws the rows again and replaces
the file. Either way the stage writes the same bytes.
"""

import hashlib
import shutil

import pytest
import yaml

from cflow import cli, flow, harness
from cflow import metrics as me

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
# the use of each prior-chain draw, by the tags of its seed stream
USES = {(harness._TAG_Q0, 1): "pool", (harness._TAG_TRAJ,): "traj", (me.EVAL_DRAW_TAG,): "eval",
        (harness._TAG_Q0,): "per-step"}
# what the first stage on a prior draws: its pool, then its trajectory and eval base states
FIRST = [("pool", 512), ("traj", 512), ("eval", 64)]
STORED = ["learn.bin", "learn.eval0.bin", "learn.traj.bin"]


@pytest.fixture
def draws(monkeypatch):
    """The use and row count of each ``flow.ModelSampler.sample`` call:
    every seeded push through a prior chain."""
    calls = []
    original = flow.ModelSampler.sample

    def spy(self, n):
        calls.append((USES[tuple(self.seed[1:])], n))
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


def scores(stage_dir) -> list[list]:
    """The stage's report rows without their two timing columns."""
    return [row.to_row()[:-2] for row in harness.read_report_csv(stage_dir / "report.csv")]


def stored(tmp_path) -> list[str]:
    return sorted(p.name for p in (tmp_path / "run" / "source_pool").iterdir())


def test_a_second_refit_reads_the_pool_and_writes_the_same_bytes(tmp_path, draws):
    spec = spec_for(tmp_path)
    harness.run(spec)
    first = harness.run(spec.with_pipeline("refit-ot"))
    assert draws == FIRST
    before = stage_bytes(first.stage_dir)
    pool = tmp_path / "run" / "source_pool" / "learn.bin"
    assert pool.stat().st_size == 64 + 8 * 512 * 2
    assert (pool.parent / "learn.traj.bin").stat().st_size == 64 + 8 * 512 * 2
    assert (pool.parent / "learn.eval0.bin").stat().st_size == 64 + 8 * 64 * 2

    second = harness.run(spec.with_pipeline("refit-ot"))
    assert draws == FIRST
    assert stage_bytes(second.stage_dir) == before
    assert stored(tmp_path) == STORED


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
    assert draws == FIRST
    assert [meta(arm.stage_dir)["source_pool_cache"] for arm in arms] == ["drawn", "read"]
    harness.run(spec.with_pipeline("unlearn-erfm"))
    assert draws == FIRST
    # invert draws from the unlearned model: draws of its own
    harness.run(spec.with_pipeline("invert"))
    assert draws == FIRST + FIRST
    assert stored(tmp_path) == STORED + ["unlearn.bin", "unlearn.eval0.bin", "unlearn.traj.bin"]


def test_a_second_stage_on_a_prior_pushes_nothing_through_it_to_score_its_model(tmp_path, monkeypatch):
    spec = spec_for(tmp_path, unlearn_source="data", eval_seeds=[0, 1])
    harness.run(spec)
    harness.run(spec.with_pipeline("unlearn-erfm"))
    pushes = []
    original = flow.FlowModel.push

    def spy(self, x, n_steps=None):
        pushes.append((len(self.chain), len(x)))
        return original(self, x, n_steps)

    monkeypatch.setattr(flow.FlowModel, "push", spy)
    sweep = spec.with_pipeline("sweep-lambda", lambda_grid=[0.5])
    arm = harness.run(sweep)[0]
    # its one push through the chain is the timing draw
    assert pushes == [(2, me.INFERENCE_TIMING_SAMPLES)]
    before = stage_bytes(arm.stage_dir), scores(arm.stage_dir)

    # with the store emptied the arm draws again and writes the same bytes
    shutil.rmtree(tmp_path / "run" / "source_pool")
    again = harness.run(sweep)[0]
    assert len(pushes) > 1
    assert (stage_bytes(again.stage_dir), scores(again.stage_dir)) == before
    assert stored(tmp_path) == ["learn.eval0.bin", "learn.eval1.bin", "learn.traj.bin"]


def test_a_new_prior_checkpoint_draws_again(tmp_path, draws):
    spec = spec_for(tmp_path)
    harness.run(spec)
    harness.run(spec.with_pipeline("refit-ot"))
    # learn again under another seed; the refit keeps its own seed, so only
    # the prior's checkpoint differs from the key the pool was stored under
    harness.run(spec.with_pipeline("learn", seed=3))
    refit = harness.run(spec.with_pipeline("refit-ot"))
    assert draws == FIRST + FIRST
    assert meta(refit.stage_dir)["source_pool_cache"] == "drawn"
    assert meta(refit.stage_dir)["prior_ckpt_sha256"] == sha256(tmp_path / "run" / "learn" / "ckpt.bin")


# the trajectory's stream starts with the seed, each eval stream with its eval seed
@pytest.mark.parametrize("field, value, again", [
    ("seed", 1, [("pool", 512), ("traj", 512)]),
    ("source_pool", 256, [("pool", 256)]),
    ("source_steps", 2, [("pool", 512)]),
    ("eval_n", 32, [("eval", 32)]),
], ids=["seed-1", "source_pool-256", "source_steps-2", "eval_n-32"])
def test_each_spec_field_of_the_key_draws_again(tmp_path, draws, field, value, again):
    learn = spec_for(tmp_path)
    harness.run(learn)
    harness.run(learn.with_pipeline("refit-ot"))
    harness.run(learn.with_pipeline("refit-ot", **{field: value}))
    assert draws == FIRST + again


def test_another_numpy_version_draws_again(tmp_path, draws, monkeypatch):
    spec = spec_for(tmp_path)
    harness.run(spec)
    harness.run(spec.with_pipeline("refit-ot"))
    real = harness._dist_version
    monkeypatch.setattr(harness, "_dist_version", lambda name: "0.0" if name == "numpy" else real(name))
    harness.run(spec.with_pipeline("refit-ot"))
    assert draws == FIRST + FIRST


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


def leave_a_partial(path):
    """The file, as a writer that never finished would leave it (pid 0 is
    no writer's)."""
    path.rename(path.with_name(f"{path.name}.0.partial"))


DAMAGE = {
    "truncated": truncate,
    "grown": grow,
    "key-byte": flip(0),
    "digest-byte": flip(40),
    "data-byte": flip(64 + 8 * 100 + 3),
    "directory": replace_by_a_directory,
    "leftover-partial": leave_a_partial,
}
FILES = {"pool": "learn.bin", "traj": "learn.traj.bin", "eval": "learn.eval0.bin"}


@pytest.mark.parametrize("damage", DAMAGE)
def test_a_damaged_pool_is_drawn_again_with_the_same_stage_outputs(tmp_path, draws, capsys, damage):
    redrawn_after(tmp_path, draws, capsys, "pool", damage)


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("use", ["traj", "eval"])
def test_damaged_base_states_are_drawn_again_with_the_same_stage_outputs(tmp_path, draws, capsys, use, damage):
    redrawn_after(tmp_path, draws, capsys, use, damage)


def redrawn_after(tmp_path, draws, capsys, use, damage):
    """A refit on a damaged ``use`` file draws it again, writes the same
    stage files and puts the file back as it was."""
    config = tmp_path / "pool.yaml"
    config.write_text(yaml.safe_dump({**BASE, "pipeline": "learn", "out": str(tmp_path / "run")}))
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["refit", "--config", str(config)]) == 0
    refit = tmp_path / "run" / "refit"
    path = tmp_path / "run" / "source_pool" / FILES[use]
    before, kept = (stage_bytes(refit), scores(refit)), path.read_bytes()
    DAMAGE[damage](path)
    capsys.readouterr()

    assert cli.main(["refit", "--config", str(config)]) == 0
    redrawn = FIRST + [draw for draw in FIRST if draw[0] == use]
    assert draws == redrawn
    assert (stage_bytes(refit), scores(refit)) == before
    assert meta(refit)["source_pool_cache"] == ("drawn" if use == "pool" else "read")
    assert "Traceback" not in capsys.readouterr().err
    if damage == "directory":
        # the write cannot replace a directory and leaves it; the stage is done
        assert path.is_dir() and (path / "inside").is_dir()
    else:
        assert path.read_bytes() == kept
        assert cli.main(["refit", "--config", str(config)]) == 0
        assert draws == redrawn
    # a leftover .partial file is never read, and this run's own are gone
    leftover = [path.with_name(f"{path.name}.0.partial")] if damage == "leftover-partial" else []
    assert list(path.parent.glob("*.partial")) == leftover


def test_per_step_draws_keep_no_pool(tmp_path, draws):
    spec = spec_for(tmp_path, source_pool=0)
    harness.run(spec)
    refit = harness.run(spec.with_pipeline("refit-ot"))
    # a draw per training step; the trajectory and eval draws are stored
    assert draws == [("per-step", 32)] * 8 + FIRST[1:]
    assert stored(tmp_path) == ["learn.eval0.bin", "learn.traj.bin"]
    assert "source_pool_cache" not in meta(refit.stage_dir)


def test_data_and_gaussian_sources_keep_no_pool(tmp_path, draws):
    spec = spec_for(tmp_path, unlearn_source="data")
    for pipeline in ("learn", "retrain", "finetune"):
        harness.run(spec.with_pipeline(pipeline))
    # none of these runs on a prior chain (finetune only starts from learn's weights)
    assert not (tmp_path / "run" / "source_pool").exists()
    harness.run(spec.with_pipeline("unlearn-erfm"))
    assert draws == FIRST[1:]
    assert stored(tmp_path) == ["learn.eval0.bin", "learn.traj.bin"]


def test_a_stage_removes_the_eval_base_states_of_seeds_it_no_longer_evaluates(tmp_path):
    spec = spec_for(tmp_path, eval_seeds=[0, 1])
    harness.run(spec)
    harness.run(spec.with_pipeline("unlearn-erfm"))
    assert stored(tmp_path) == ["learn.bin", "learn.eval0.bin", "learn.eval1.bin", "learn.traj.bin"]
    harness.run(spec_for(tmp_path, "unlearn-erfm", eval_seeds=[2]))
    assert stored(tmp_path) == ["learn.bin", "learn.eval2.bin", "learn.traj.bin"]
    # a retrained prior under another seed replaces the files it still reads
    spec = spec_for(tmp_path, seed=1, eval_seeds=[2])
    harness.run(spec)
    harness.run(spec.with_pipeline("unlearn-erfm"))
    assert stored(tmp_path) == ["learn.bin", "learn.eval2.bin", "learn.traj.bin"]
    # another prior's files and files of other names are left alone
    pool = tmp_path / "run" / "source_pool"
    for name in ("unlearn.eval0.bin", "learn.evalx.bin", "learn.eval0.bin.7.partial"):
        (pool / name).write_bytes(b"")
    harness.run(spec.with_pipeline("unlearn-erfm"))
    assert stored(tmp_path) == ["learn.bin", "learn.eval0.bin.7.partial", "learn.eval2.bin", "learn.evalx.bin",
                                "learn.traj.bin", "unlearn.eval0.bin"]
