"""Benchmark generators, region geometry, base samplers, CSV interchange."""

import numpy as np
import pytest

from cflow import datasets as ds


class TestGenerate:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            ds.generate("spirals", 10, 0)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            ds.generate("checkerboard", 0, 0)

    @pytest.mark.parametrize("name", ds.BENCHMARKS)
    def test_partition_covers_everything(self, name):
        data = ds.generate(name, 500, 3)
        assert len(data.retain_points) + len(data.points[data.labels == ds.FORGET]) == 500
        assert set(np.unique(data.labels)) == {ds.RETAIN, ds.FORGET}

    @pytest.mark.parametrize("name", ds.BENCHMARKS)
    def test_seed_determinism(self, name):
        a = ds.generate(name, 400, 11)
        b = ds.generate(name, 400, 11)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("name", ds.BENCHMARKS)
    def test_different_seeds_differ(self, name):
        a = ds.generate(name, 400, 1)
        b = ds.generate(name, 400, 2)
        assert not np.array_equal(a.points, b.points)

    def test_circles_ring_statistics(self):
        data = ds.generate("circles", 1000, 7)
        n_retain = len(data.retain_points)
        assert 400 <= n_retain <= 600  # equal mixture, binomial spread
        r_in = np.linalg.norm(data.retain_points, axis=1)
        r_out = np.linalg.norm(data.points[data.labels == ds.FORGET], axis=1)
        assert abs(r_in.mean() - ds.CIRCLES_R_RETAIN) < 0.02
        assert abs(r_out.mean() - ds.CIRCLES_R_FORGET) < 0.02
        assert r_in.std() == pytest.approx(ds.CIRCLES_NOISE, abs=0.02)

    def test_gaussians6_cluster_assignment(self):
        data = ds.generate("gaussians6", 600, 1)
        d = np.linalg.norm(data.points[:, None, :] - ds.GAUSS6_CENTERS[None], axis=2)
        nearest = d.argmin(axis=1)
        counts = np.bincount(nearest, minlength=6)
        assert np.all(counts > 60)  # ~100 per cluster
        # odd-numbered clusters (1-indexed) are retain
        expected = np.where(ds.GAUSS6_RETAIN_MASK[nearest], ds.RETAIN, ds.FORGET)
        assert np.mean(expected == data.labels) == 1.0

    def test_checkerboard_cells_and_labels(self):
        data = ds.generate("checkerboard", 2000, 5)
        i = np.floor(data.points[:, 0] + 2.0).astype(int)
        j = np.floor(data.points[:, 1] + 2.0).astype(int)
        assert np.all((i + j) % 2 == 0)  # only alternating cells occupied
        in_forget = (j == 3) | (i == 3)
        np.testing.assert_array_equal(
            data.labels, np.where(in_forget, ds.FORGET, ds.RETAIN)
        )

    def test_moons_lower_arc_is_retain(self):
        data = ds.generate("moons", 1000, 3)
        # the retained arc dips lower than the forgotten one
        assert data.retain_points[:, 1].mean() < data.points[data.labels == ds.FORGET][:, 1].mean()

    @pytest.mark.parametrize("name", ds.BENCHMARKS)
    def test_points_inside_working_box(self, name):
        data = ds.generate(name, 2000, 9)
        assert np.all(np.abs(data.points) <= 2.5)

    @pytest.mark.parametrize("name", ds.BENCHMARKS)
    def test_region_purity(self, name):
        data = ds.generate(name, 5000, 17)
        region = ds.region_labels(name, data.points)
        assert np.mean(region == data.labels) >= 0.99

    def test_subset_partitions(self):
        data = ds.generate("circles", 300, 0)
        retain = data.subset(ds.RETAIN)
        assert np.all(retain.labels == ds.RETAIN)
        assert len(retain) == len(data.retain_points)


class TestMargins:
    @pytest.mark.parametrize("name", ds.BENCHMARKS)
    def test_margin_sign_matches_labels_on_clean_points(self, name):
        data = ds.generate(name, 2000, 23)
        margin = ds.forget_margin(name, data.points)
        agree = np.mean((margin > 0) == (data.labels == ds.FORGET))
        assert agree >= 0.99

    def test_circles_margin_is_radial(self):
        pts = np.array([[0.5, 0.0], [0.0, 1.0], [0.75, 0.0]])
        m = ds.forget_margin("circles", pts)
        np.testing.assert_allclose(m, [-0.25, 0.25, 0.0], atol=1e-12)


class TestSamplers:
    def test_gaussian_sampler_moments(self):
        s = ds.GaussianSampler(seed=4)
        x = s.sample(100_000)
        assert np.all(np.abs(x.mean(axis=0)) < 0.02)
        assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.03)

    def test_gaussian_sampler_stream_advances(self):
        s = ds.GaussianSampler(seed=4)
        a = s.sample(10)
        b = s.sample(10)
        assert not np.array_equal(a, b)

    def test_gaussian_sampler_seeded_reproducibility(self):
        a = ds.GaussianSampler(seed=8).sample(50)
        b = ds.GaussianSampler(seed=8).sample(50)
        np.testing.assert_array_equal(a, b)

    def test_empirical_single_point(self):
        s = ds.EmpiricalSampler(np.array([[3.0, -1.0]]), seed=0)
        x = s.sample(25)
        np.testing.assert_array_equal(x, np.tile([3.0, -1.0], (25, 1)))

    def test_empirical_draws_from_backing_set(self):
        pts = np.random.default_rng(0).normal(size=(40, 2))
        s = ds.EmpiricalSampler(pts, seed=1)
        x = s.sample(500)
        rows = {tuple(p) for p in pts}
        assert all(tuple(p) in rows for p in x)

    def test_empty_backing_set_rejected(self):
        with pytest.raises(ValueError):
            ds.EmpiricalSampler(np.zeros((0, 2)), seed=0)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            ds.GaussianSampler(seed=0).sample(0)


class TestCsv:
    def test_export_load_round_trip(self, tmp_path):
        data = ds.generate("moons", 123, 9)
        path = tmp_path / "moons.csv"
        ds.export_csv(data, path)
        header = path.read_text().splitlines()[0]
        assert header == "x,y,label"
        pts, labels = ds.load_csv(path)
        np.testing.assert_array_equal(pts, data.points)
        np.testing.assert_array_equal(labels, data.labels)

    def test_header_cells_are_stripped_and_caseless(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("\ufeff X , Y ,Label\n0.5,0.25,forget\n", encoding="utf-8")
        pts, labels = ds.load_csv(path)
        np.testing.assert_array_equal(pts, [[0.5, 0.25]])
        assert labels.tolist() == [1]
