"""MMD estimator, classifier metrics, timing, and report assembly."""

import functools
import statistics
import tracemalloc

import numpy as np
import pytest
from conftest import kernel_sum_reference, mmd2_from_sums, mmd2_reference, use_pool
from hypothesis import given, settings
from hypothesis import strategies as st

from cflow import datasets as ds
from cflow import energy as en
from cflow import metrics as me
from cflow.config import ConfigError
from cflow.diffcore import nn

# one to three rows, m on both sides of the kernel-product rule (999 and 204
# fall back to one whole product), n x n on either side of one leaf (181 x 181
# is one, 182 x 182 two), and the eval sizes
SIZES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 181, 182, 204, 999, 1000, 1001, 4096]


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

    def test_kernel_sums_hold_one_matrix(self):
        n = 1000
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            me.mmd2(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one n x n float64 array plus a scratch block per pool run
        assert peak < 1.5 * n * n * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_point_that_is_not_finite_is_rejected_by_name(self, bad):
        x = np.random.default_rng(7).normal(size=(5, 2))
        y = x + 1.0
        y[3, 1] = bad
        with pytest.raises(ValueError, match="Y holds a point that is not finite"):
            me.mmd2(x, y)
        with pytest.raises(ValueError, match="X holds a point that is not finite"):
            me.mmd2(y, x)

    def test_bandwidth_validated(self):
        with pytest.raises(ValueError):
            me.KernelConfig(bandwidth=0.0)


@functools.cache
def batch(side: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, side == "y"])
    return rng.normal(size=(n, 2)) + (0.5 if side == "y" else 0.0)


@functools.cache
def reference_sum(side_a: str, n: int, side_b: str, m: int) -> float:
    return kernel_sum_reference(batch(side_a, n), batch(side_b, m))


def leaf_count(size: int) -> int:
    """Leaves of numpy's pairwise-sum tree over ``size`` values, cut at nodes
    of at most ``KERNEL_LEAF`` values."""
    if size <= me.KERNEL_LEAF:
        return 1
    half = size // 2 - size // 2 % 8
    return leaf_count(half) + leaf_count(size - half)


class TestKernelSumRuns:
    """``_kernel_sum`` builds and reduces the kernel matrix one leaf of
    numpy's pairwise-sum tree at a time, one run of leaves per pool thread
    from two leaves up; it equals the two-array form bit for bit on any
    pool."""

    @pytest.fixture(params=[1, 2, 4], ids=["pool-1", "pool-2", "pool-4"])
    def pool(self, request, monkeypatch):
        executor = use_pool(monkeypatch, request.param)
        yield executor
        executor.shutdown()

    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("n", SIZES)
    def test_the_two_array_form_bit_for_bit(self, pool, n, m):
        x, y = batch("x", n), batch("y", m)
        assert me._kernel_sum(x, y, me.KernelConfig()) == reference_sum("x", n, "y", m)
        want = mmd2_from_sums(reference_sum("x", n, "x", n), reference_sum("y", m, "y", m),
                              reference_sum("x", n, "y", m), n, m)
        assert me.mmd2(x, y) == want
        # one run per pool thread, at most one per leaf, from two leaves up
        runs = [min(pool._max_workers, leaf_count(k)) for k in (n * m, n * n, m * m, n * m)]
        assert len(pool.jobs) == sum(r - 1 for r in runs)

    def test_one_leaf_never_touches_the_pool(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the pool ran")

        monkeypatch.setattr(nn, "inference_pool", fail)
        n = me.KERNEL_LEAF // 4096
        x, y = batch("x", n), batch("y", 4096)
        assert me._kernel_sum(x, y, me.KernelConfig()) == reference_sum("x", n, "y", 4096)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_each_pool_run_holds_one_leaf_at_the_largest_eval_size(self, monkeypatch, threads):
        executor = use_pool(monkeypatch, threads)
        n = me.MAX_EVAL_N
        x, y = batch("x", n), batch("y", n)
        tracemalloc.start()
        try:
            total = me._kernel_sum(x, y, me.KernelConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            executor.shutdown()
        assert total == reference_sum("x", n, "y", n)
        # two arrays of one leaf's 2^15 float64 values per run, 512 KiB, where
        # the whole 4096 x 4096 matrix would be 128 MiB
        assert peak < (threads + 1) * 2**20

    @pytest.mark.parametrize("size", [1, 7, 8, 129, me.KERNEL_LEAF, me.KERNEL_LEAF + 1, 1_000_003, 2**22])
    def test_leaf_sums_in_tree_order_are_numpys_sum(self, size):
        # values over 600 orders of magnitude, so that any other order of
        # adds would show in the last bits
        rng = np.random.default_rng(size)
        flat = rng.random(size) * 10.0 ** rng.integers(-300, 300, size=size)
        assert me._tree_sum(0, size, lambda lo, hi: float(np.add.reduce(flat[lo:hi]))) == float(flat.sum())


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
        data = ds.generate("circles", 2000, 1)
        outer = data.points[data.labels == ds.FORGET][:3]
        inner = data.retain_points[:7]
        batch = np.vstack([outer, inner])
        assert me.forget_rate(circles_classifier, batch) == pytest.approx(0.3)

    def test_forget_rate_on_real_subsets(self, circles_classifier):
        data = ds.generate("circles", 2000, 12)
        assert me.forget_rate(circles_classifier, data.retain_points) <= 0.02
        assert me.forget_rate(circles_classifier, data.points[data.labels == ds.FORGET]) >= 0.98

    def test_leakage_mean_confidence(self, circles_classifier):
        data = ds.generate("circles", 1000, 13)
        leak_retain = me.leakage(circles_classifier, data.retain_points)
        leak_forget = me.leakage(circles_classifier, data.points[data.labels == ds.FORGET])
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
        me.measure_inference_ms(model, n=2000, n_steps=10)  # warm-up: pool start-up, first-touch pages

        def median_ms(n_steps):
            return statistics.median(me.measure_inference_ms(model, n=2000, n_steps=n_steps) for _ in range(3))

        ratio = median_ms(100) / median_ms(10)
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

    @pytest.mark.parametrize("name", ["mmd_retain", "train_time_s", "inference_ms_per_sample",
                                      "retention_accuracy", "forget_rate", "leakage"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            self.make_row(**{name: float("nan")})

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
