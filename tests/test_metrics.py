"""MMD estimator, classifier metrics, timing, and report assembly."""

import tracemalloc

import numpy as np
import pytest
from conftest import mmd2_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from cflow import datasets as ds
from cflow import energy as en
from cflow import metrics as me
from cflow.config import ConfigError


@pytest.fixture(scope="module")
def circles_classifier():
    data = ds.generate("circles", 1500, 3)
    return en.train_classifier(data, en.ClassifierConfig(steps=1200, seed=0))


class TestMmd:
    def test_identical_multisets_zero(self):
        x = np.random.default_rng(0).normal(size=(80, 2))
        assert me.mmd2(x, x.copy()) <= 1e-12

    def test_shuffled_multiset_zero_within_tolerance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 2))
        y = x[rng.permutation(60)]
        assert me.mmd2(x, y) <= 1e-12

    def test_single_point_hand_value(self):
        # k(x,x)=k(y,y)=1, k(x,y)=exp(-4/2): mmd2 = 2 - 2 exp(-2)
        x = np.array([[0.0, 0.0]])
        y = np.array([[2.0, 0.0]])
        expected = 2.0 - 2.0 * np.exp(-2.0)
        assert me.mmd2(x, y) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.7293294335267746)

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 2)) + 0.5
        assert me.mmd2(x, y) == pytest.approx(mmd2_reference(x, y), abs=1e-10)

    def test_matches_reference_unequal_sizes(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(37, 2))
        y = rng.normal(size=(21, 2))
        assert me.mmd2(x, y) == pytest.approx(mmd2_reference(x, y), abs=1e-10)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=(40, 2)) + 1.0
        assert me.mmd2(x, y) == me.mmd2(y, x)

    @given(shift=st.floats(-3.0, 3.0), n=st.integers(2, 30))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, shift, n):
        rng = np.random.default_rng(abs(hash((shift, n))) % 2**32)
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2)) + shift
        assert me.mmd2(x, y) >= 0.0

    def test_separated_sets_have_larger_mmd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 2))
        near = rng.normal(size=(100, 2))
        far = rng.normal(size=(100, 2)) + 3.0
        assert me.mmd2(x, far) > me.mmd2(x, near)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            me.mmd2(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_kernel_sanity(self):
        k = me.KernelConfig()
        x = np.array([[0.3, -0.7]])
        # k(x, x) = 1 on the diagonal of the Gram matrix
        assert me.mmd2(x, x) == 0.0
        # kernel decreasing in distance: mmd of 1-point sets grows with gap
        gaps = [me.mmd2(x, x + [[d, 0.0]]) for d in (0.5, 1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_kernel_sums_hold_two_matrices_at_most(self):
        n = 1000
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            me.mmd2(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = n * n * 8
        assert peak < 2.5 * matrix  # two n x n float64 arrays plus small ones

    def test_bandwidth_validated(self):
        with pytest.raises(ValueError):
            me.KernelConfig(bandwidth=0.0)


class TestClassifierMetrics:
    def test_retention_accuracy_perfect_inputs(self, circles_classifier):
        inner = ds.generate("circles", 400, 8).retain_points
        labels = np.full(len(inner), ds.RETAIN)
        assert me.retention_accuracy(circles_classifier, inner, labels) >= 0.99

    def test_retention_accuracy_mislabeled_is_complement(self, circles_classifier):
        inner = ds.generate("circles", 400, 8).retain_points
        right = me.retention_accuracy(circles_classifier, inner, np.full(len(inner), ds.RETAIN))
        wrong = me.retention_accuracy(circles_classifier, inner, np.full(len(inner), ds.FORGET))
        assert right + wrong == pytest.approx(1.0)
        assert wrong <= 0.01

    def test_forget_rate_counting(self, circles_classifier):
        # synthetic: 3 clear-forget points among 10
        outer = ds.generate("circles", 2000, 1).forget_points[:3]
        inner = ds.generate("circles", 2000, 1).retain_points[:7]
        batch = np.vstack([outer, inner])
        assert me.forget_rate(circles_classifier, batch) == pytest.approx(0.3)

    def test_forget_rate_on_real_subsets(self, circles_classifier):
        data = ds.generate("circles", 2000, 12)
        assert me.forget_rate(circles_classifier, data.retain_points) <= 0.02
        assert me.forget_rate(circles_classifier, data.forget_points) >= 0.98

    def test_leakage_mean_confidence(self, circles_classifier):
        data = ds.generate("circles", 1000, 13)
        leak_retain = me.leakage(circles_classifier, data.retain_points)
        leak_forget = me.leakage(circles_classifier, data.forget_points)
        assert leak_retain < 0.05
        assert leak_forget > 0.95

    def test_leakage_lower_bounded_by_half_forget_rate(self, circles_classifier):
        # each forget-classified sample contributes confidence > 0.5
        rng = np.random.default_rng(3)
        batch = rng.uniform(-1.5, 1.5, size=(500, 2))
        fr = me.forget_rate(circles_classifier, batch)
        lk = me.leakage(circles_classifier, batch)
        assert lk >= 0.5 * fr

    def test_empty_input_rejected(self, circles_classifier):
        with pytest.raises(ValueError):
            me.forget_rate(circles_classifier, np.zeros((0, 2)))
        with pytest.raises(ValueError):
            me.retention_accuracy(circles_classifier, np.zeros((0, 2)), np.zeros(0))


class TestTiming:
    def test_inference_scales_with_steps(self):
        from cflow.diffcore import velocity_mlp
        from cflow import flow

        model = flow.FlowModel(velocity_mlp(seed=0), n_steps=10)
        ms10 = me.measure_inference_ms(model, n=2000, n_steps=10)
        ms100 = me.measure_inference_ms(model, n=2000, n_steps=100)
        ratio = ms100 / ms10
        assert 10 / 3 <= ratio <= 30  # ~linear in steps, generous slack

    def test_default_is_one_1000_sample_draw_at_10_steps(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def sample(self, n, n_steps=None, seed=0):
                self.calls.append((n, n_steps))

        model = Recorder()
        ms = me.measure_inference_ms(model)
        assert model.calls == [(1000, 10)]
        assert isinstance(ms, float) and ms >= 0.0


class TestReport:
    def make_row(self, **kw):
        base = dict(
            dataset="circles",
            method="unlearn",
            seed=0,
            lam=5.0,
            mmd_retain=0.01,
            retention_accuracy=1.0,
            forget_rate=0.02,
            leakage=0.03,
            train_time_s=4.0,
            inference_ms_per_sample=0.05,
        )
        base.update(kw)
        return me.MetricsReport(**base)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            self.make_row(forget_rate=1.5)
        with pytest.raises(ValueError):
            self.make_row(mmd_retain=-0.1)

    def test_none_marks_absent(self):
        row = self.make_row(train_time_s=None)
        assert row.to_row()[me.REPORT_COLUMNS.index("train_time_s")] is None

    def test_header_matches_fields(self):
        row = self.make_row()
        assert len(row.to_row()) == len(me.MetricsReport.header())

    @pytest.mark.parametrize("n_eval", [0, me.MAX_EVAL_N + 1])
    def test_n_eval_out_of_range_rejected_before_drawing(self, n_eval):
        class NoDraws:
            def sample(self, *args, **kwargs):
                raise AssertionError("evaluate_model drew samples")

        with pytest.raises(ConfigError, match=r"n_eval must lie in \[1, "):
            me.evaluate_model(NoDraws(), "circles", None, n_eval=n_eval)
