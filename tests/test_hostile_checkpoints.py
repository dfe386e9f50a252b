"""Damaged checkpoints: a flow ``ckpt.bin`` or a ``classifier.bin`` cut short
or with one bit flipped either loads or raises ``CheckpointError`` (or, for
a classifier whose kind tag no longer names one, ``ConfigError``), never
another error; ``cflow sample`` on one exits 0 or 4 with one line, and 4
when it is cut short; and a ``cflow unlearn`` whose prior is cut short
exits 4 and leaves the existing ``unlearn/`` byte for byte (in
``test_harness``, beside the other refused stages). A flow checkpoint whose
chain has a field that does not map d + 1 columns to d, or bytes after its
last stage, is refused by the loader."""

import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cflow import cli, energy, flow
from cflow.config import ConfigError
from cflow.diffcore import CheckpointError, Mlp, save_mlp, velocity_mlp

# derandomized, so that every run of the suite tries the same files
HOSTILE = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@functools.cache
def flow_bytes() -> bytes:
    """A two-stage chain with provenance, as ``flow.save_model`` writes it."""
    root = flow.FlowModel(velocity_mlp(d=2, hidden=(8,), seed=1), n_steps=3)
    model = flow.FlowModel(velocity_mlp(d=2, hidden=(8, 8), seed=2), parent=root, n_steps=4,
                           provenance={"stage": "refit", "config_sha256": "0" * 64})
    with tempfile.TemporaryDirectory() as tmp:
        flow.save_model(model, Path(tmp) / "ckpt.bin")
        return (Path(tmp) / "ckpt.bin").read_bytes()


@functools.cache
def classifier_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        save_mlp(Mlp([2, 8, 1], seed=3), Path(tmp) / "classifier.bin", kind="classifier:circles")
        return (Path(tmp) / "classifier.bin").read_bytes()


def truncated(data: bytes, size: int) -> bytes:
    return data[:size]


def flipped(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def damage(data_of):
    """(kind, bytes) of one damaged copy: cut to any shorter length, or one
    bit flipped anywhere."""
    size = len(data_of())
    return st.one_of(
        st.tuples(st.just("truncated"), st.integers(0, size - 1).map(lambda n: truncated(data_of(), n))),
        st.tuples(st.just("flipped"), st.integers(0, 8 * size - 1).map(lambda b: flipped(data_of(), b))),
    )


def write(tmp_path, name, data) -> Path:
    path = tmp_path / name
    path.write_bytes(data)
    return path


@HOSTILE
@given(damaged=damage(flow_bytes))
def test_a_damaged_flow_checkpoint_loads_or_raises_checkpoint_error(tmp_path, damaged):
    kind, data = damaged
    path = write(tmp_path, "ckpt.bin", data)
    try:
        model = flow.load_model(path)
    except CheckpointError:
        return
    assert kind == "flipped"
    assert all(np.all(np.isfinite(stage.field.theta)) for stage in model.chain)


@HOSTILE
@given(damaged=damage(classifier_bytes))
def test_a_damaged_classifier_loads_or_raises_checkpoint_or_config_error(tmp_path, damaged):
    kind, data = damaged
    path = write(tmp_path, "classifier.bin", data)
    try:
        energy.load_classifier(path)
    except (CheckpointError, ConfigError):
        return
    assert kind == "flipped"


@settings(HOSTILE, max_examples=30)
@given(damaged=damage(flow_bytes))
def test_cflow_sample_on_a_damaged_checkpoint_gives_one_line(tmp_path, capsys, damaged):
    kind, data = damaged
    path = write(tmp_path, "ckpt.bin", data)
    code = cli.main(["sample", "--ckpt", str(path), "--n", "16", "--steps", "2", "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    if kind == "truncated":
        assert code == 4
    assert (code, err) == (0, "") or (code == 4 and err.startswith("error: ") and err.count("\n") == 1), err


def width_flipped(stage: int) -> bytes:
    """``flow_bytes`` with the first width of ``stage`` flipped from 3 to 2."""
    data = flow_bytes()
    at = -1
    for _ in range(stage + 1):
        at = data.index(b"velocity", at + 1)
    widths = at + len("velocity") + 4  # past the tag and the width count
    assert data[widths] == 3
    return flipped(data, 8 * widths)


MISSHAPEN = {
    "root-width-3-to-2": lambda: width_flipped(0),
    "top-width-3-to-2": lambda: width_flipped(1),
    "one-byte-appended": lambda: flow_bytes() + b"\0",
}


@pytest.mark.parametrize("shape", MISSHAPEN)
def test_a_misshapen_chain_is_refused_by_the_loader_and_cflow_sample(tmp_path, capsys, shape):
    path = write(tmp_path, "ckpt.bin", MISSHAPEN[shape]())
    with pytest.raises(CheckpointError):
        flow.load_model(path)
    code = cli.main(["sample", "--ckpt", str(path), "--n", "16", "--steps", "2", "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert code == 4 and err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "s.csv").exists()
