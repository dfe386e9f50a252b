"""Loss handles, MLP forward and backward, optimizer, and checkpoint behavior."""

import struct
import tracemalloc

import numpy as np
import pytest
from conftest import finite_difference_grads

from cflow.diffcore import (
    Adam,
    CheckpointError,
    Mlp,
    NonFiniteError,
    Sgd,
    ShapeError,
    StaleGradientError,
    Tensor,
    bce_with_logits,
    load_mlp,
    mlp_to_bytes,
    save_mlp,
    velocity_mlp,
)
from cflow.diffcore.nn import row_sq_error_mean


def assert_grads_close(analytic, numeric, rel=1e-4):
    # widen tolerance for tiny magnitudes where fd noise dominates
    scale = np.maximum(np.abs(numeric), 1e-6)
    mask = np.abs(numeric) < 1e-6
    tol = np.where(mask, 1e-3, rel)
    dev = np.abs(analytic - numeric) / scale
    assert np.all(dev <= tol), f"max dev {np.max(dev)}"


class TestTensorOps:
    def test_backward_rejects_non_scalar(self):
        m = Mlp([2, 3, 2], seed=0)
        with pytest.raises(ShapeError):
            m(np.ones((4, 2))).backward()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_forward_raises(self):
        m = Mlp([2, 2], seed=0)
        m.layers[0][0][...] = 10.0
        with pytest.raises(NonFiniteError):
            m(np.full((3, 2), 1e308))

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_backward_raises(self):
        # finite forward, infinite gradient: a huge output weight times a
        # huge input overflows only in d(loss)/d(W0)
        m = Mlp([1, 1, 1], seed=0)
        w0, b0 = m.layers[0]
        w1, b1 = m.layers[1]
        w0[...], b0[...], w1[...], b1[...] = 1e-11, 0.0, 1e300, 0.0
        loss = bce_with_logits(m(np.array([[1e10]])), np.array([[0.0]]))
        assert np.isfinite(loss.item())
        with pytest.raises(NonFiniteError):
            loss.backward()


class TestMlpForward:
    def test_zeroed_final_layer_gives_zero_output(self):
        m = velocity_mlp(seed=1)
        w_last, b_last = m.layers[-1]
        w_last[...] = 0.0
        b_last[...] = 0.0
        out = m.velocity(0.3, np.random.default_rng(0).normal(size=(7, 2)))
        np.testing.assert_array_equal(out, np.zeros((7, 2)))

    def test_single_linear_layer_identity_ignores_time(self):
        m = Mlp([3, 2], seed=0)
        m.layers[0][0][...] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        m.layers[0][1][...] = 0.0
        out = m.velocity(0.77, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_deterministic_for_fixed_seed(self):
        x = np.random.default_rng(5).normal(size=(11, 2))
        a = velocity_mlp(seed=42).velocity(0.5, x)
        b = velocity_mlp(seed=42).velocity(0.5, x)
        np.testing.assert_array_equal(a, b)

    def test_forward_raw_matches_tape_forward(self):
        m = velocity_mlp(seed=9)
        x = np.random.default_rng(1).normal(size=(13, 3))
        np.testing.assert_array_equal(m(x).data, m.forward_raw(x))

    # odd row counts cover the last ``B mod 4`` rows, which OpenBLAS rounds
    # its own way in a B-row matmul
    @pytest.mark.parametrize("widths", [[3, 64, 64, 64, 2], [2, 64, 64, 64, 1]],
                             ids=["velocity", "classifier"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 256, 1000, 5000])
    def test_forward_raw_is_forward_bit_for_bit(self, widths, n):
        m = Mlp(widths, seed=4)
        x = np.random.default_rng(n).normal(size=(n, widths[0]))
        x_before = x.copy()
        out = m.forward_raw(x)
        np.testing.assert_array_equal(out, m.forward(x)[0])
        np.testing.assert_array_equal(x, x_before)

    def test_input_width_checked(self):
        m = velocity_mlp(seed=0)
        with pytest.raises(ShapeError):
            m.velocity(0.1, np.ones((4, 3)))

    def test_non_finite_time_rejected(self):
        m = velocity_mlp(seed=0)
        with pytest.raises(ValueError):
            m.velocity(np.inf, np.ones((1, 2)))

    def test_layers_are_views_into_theta(self):
        m = Mlp([3, 4, 2], seed=2)
        assert m.theta.size == 3 * 4 + 4 + 4 * 2 + 2
        np.testing.assert_array_equal(
            m.theta, np.concatenate([p.ravel() for layer in m.layers for p in layer])
        )
        m.theta[:] = np.arange(m.theta.size)
        assert m.layers[1][1].tolist() == [24.0, 25.0]


class TestGradientCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_mlp_grads_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        m = Mlp([3, 8, 8, 2], seed=seed)
        x = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 2))

        def loss_fn():
            out = m.forward_raw(x)
            return float(((out - target) ** 2).sum(axis=1).mean())

        loss = row_sq_error_mean(m(x), target)
        loss.backward()
        fd = finite_difference_grads(loss_fn, m.theta)
        assert_grads_close(m.grad, fd)

    def test_weighted_loss_grads_match_finite_differences(self):
        rng = np.random.default_rng(3)
        m = Mlp([3, 6, 2], seed=3)
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))
        w = rng.uniform(0.1, 1.0, size=5)

        def loss_fn():
            e = ((m.forward_raw(x) - target) ** 2).sum(axis=1)
            return float((w * e).sum() / w.sum())

        loss = row_sq_error_mean(m(x), target, weights=w)
        loss.backward()
        fd = finite_difference_grads(loss_fn, m.theta)
        assert_grads_close(m.grad, fd)

    def test_bce_grads_match_finite_differences(self):
        rng = np.random.default_rng(7)
        m = Mlp([2, 6, 1], seed=7)
        x = rng.normal(size=(8, 2))
        y = rng.integers(0, 2, size=(8, 1)).astype(float)

        def loss_fn():
            z = m.forward_raw(x)
            sp = np.maximum(z, 0) + np.log1p(np.exp(-np.abs(z)))
            return float((sp - y * z).mean())

        loss = bce_with_logits(m(x), y)
        loss.backward()
        fd = finite_difference_grads(loss_fn, m.theta)
        assert_grads_close(m.grad, fd)


def _net(theta):
    """A [1, 1] network (W then b) holding the given two parameters."""
    m = Mlp([1, 1], seed=0)
    m.theta[:] = theta
    return m


def _set_grad(m, grad):
    m.grad[:] = grad
    m.grad_fresh = True


class TestOptimizers:
    def test_sgd_single_step(self):
        m = _net([1.0, 1.0])
        _set_grad(m, [2.0, 0.0])
        Sgd(m, lr=0.1).step()
        np.testing.assert_allclose(m.theta, [0.8, 1.0])

    def test_zero_gradient_leaves_parameters_unchanged(self):
        m = _net([1.0, -1.0])
        _set_grad(m, [0.0, 0.0])
        opt = Adam(m, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(m.theta, [1.0, -1.0])

    def test_step_before_backward_rejected(self):
        opt = Sgd(_net([1.0, 1.0]), lr=0.1)
        with pytest.raises(StaleGradientError):
            opt.step()

    def test_second_step_without_fresh_backward_rejected(self):
        m = _net([1.0, 1.0])
        _set_grad(m, [1.0, 1.0])
        opt = Adam(m)
        opt.step()
        with pytest.raises(StaleGradientError):
            opt.step()

    def test_adam_repeated_identical_gradients_move_monotonically(self):
        m = _net([0.5, 0.5])
        opt = Adam(m, lr=0.01)
        values = [float(m.theta[0])]
        for _ in range(10):
            _set_grad(m, [3.0, 0.0])
            opt.step()
            values.append(float(m.theta[0]))
        diffs = np.diff(values)
        assert np.all(diffs < 0), values  # positive gradient: strictly downhill
        assert m.theta[1] == 0.5  # zero gradient: untouched

    def test_non_finite_gradient_rejected_at_step(self):
        m = _net([1.0, 1.0])
        _set_grad(m, [np.inf, 0.0])
        with pytest.raises(NonFiniteError):
            Sgd(m, lr=0.1).step()

    def test_step_counter_increases(self):
        m = _net([1.0, 1.0])
        opt = Adam(m)
        for expected in (1, 2, 3):
            _set_grad(m, [1.0, 1.0])
            opt.step()
            assert opt.step_count == expected


class TestDeterminism:
    def test_identical_seed_and_ops_give_bit_identical_parameters(self):
        def train_once():
            rng = np.random.default_rng(123)
            m = Mlp([3, 16, 2], seed=11)
            opt = Adam(m, lr=1e-3)
            for _ in range(25):
                x = rng.normal(size=(8, 3))
                target = rng.normal(size=(8, 2))
                loss = row_sq_error_mean(m(x), target)
                loss.backward()
                opt.step()
            return m.theta.copy()

        np.testing.assert_array_equal(train_once(), train_once())


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        m = velocity_mlp(seed=21)
        path = tmp_path / "net.bin"
        save_mlp(m, path, kind="velocity")
        loaded, kind = load_mlp(path)
        assert kind == "velocity"
        assert loaded.widths == m.widths
        np.testing.assert_array_equal(loaded.theta, m.theta)
        # byte-for-byte: serializing the loaded model reproduces the file
        assert mlp_to_bytes(loaded, kind="velocity") == path.read_bytes()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_mlp(tmp_path / "absent.bin")

    def test_truncated_file_rejected(self, tmp_path):
        m = Mlp([2, 3], seed=0)
        raw = mlp_to_bytes(m)
        path = tmp_path / "trunc.bin"
        path.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(CheckpointError):
            load_mlp(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_mlp(path)

    def test_every_truncation_rejected(self, tmp_path):
        raw = mlp_to_bytes(Mlp([3, 2, 2], seed=0), kind="velocity")
        path = tmp_path / "cut.bin"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                load_mlp(path)

    def test_oversized_widths_rejected_before_allocating(self, tmp_path):
        widths = [3, 20000, 20000, 2]  # ~3.2 GB of parameters, none present
        header = b"CFLOWNET" + struct.pack("<II", 1, 3) + b"mlp"
        header += struct.pack(f"<I{len(widths)}I", len(widths), *widths)
        path = tmp_path / "huge.bin"
        path.write_bytes(header + b"\x00" * 16)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="truncated"):
                load_mlp(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "widths, tag",
        [([3], b"mlp"), ([3, 0, 2], b"mlp"), ([3, 2], b"\xff\xfe")],
        ids=["one-width", "zero-width", "non-utf8-tag"],
    )
    def test_malformed_header_rejected(self, tmp_path, widths, tag):
        raw = b"CFLOWNET" + struct.pack("<II", 1, len(tag)) + tag
        raw += struct.pack(f"<I{len(widths)}I", len(widths), *widths) + b"\x00" * 64
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_mlp(path)
