"""Energy fields, suppression weights, classifier energies, inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cflow import datasets as ds
from cflow import energy as en


@pytest.fixture(scope="module")
def circles_data():
    return ds.generate("circles", 1500, 3)


@pytest.fixture(scope="module")
def circles_classifier(circles_data):
    return en.train_classifier(circles_data, en.ClassifierConfig(steps=1200, seed=0))


class TestWeight:
    def test_zero_energy_gives_half(self):
        F = en.ConstantEnergy(0.0, lam=7.0)
        np.testing.assert_allclose(F.weight(np.zeros((4, 2))), 0.5)

    def test_log3_energy_closed_form(self):
        # sigma(-ln 3) = 1 / (1 + 3) = 0.25
        F = en.ConstantEnergy(np.log(3.0), lam=1.0)
        np.testing.assert_allclose(F.weight(np.zeros((1, 2))), 0.25, rtol=1e-14)

    def test_hard_suppression_at_extreme_lam(self):
        F = en.ConstantEnergy(0.1, lam=1000.0)
        w = F.weight(np.zeros((1, 2)))
        assert 0.0 < w[0] < 1e-8  # sigma(-100)

    def test_lam_must_be_positive(self):
        with pytest.raises(ValueError):
            en.ConstantEnergy(1.0, lam=0.0)

    @given(
        f=st.floats(-4.0, 4.0),
        lam=st.floats(0.01, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_weight_strictly_inside_unit_interval(self, f, lam):
        # float64 sigmoid saturates to exactly 0/1 past |z| ~ 37; the open
        # interval property is tested on the representable range
        if abs(lam * f) > 36.0:
            lam = 36.0 / max(abs(f), 1e-9)
        w = en.ConstantEnergy(f, lam=lam).weight(np.zeros((1, 2)))[0]
        assert 0.0 < w < 1.0

    @given(f=st.floats(0.05, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_weight_monotone_in_lam(self, f):
        lams = [0.5, 1.0, 2.0, 5.0, 50.0]
        x = np.zeros((1, 2))
        pos = [en.ConstantEnergy(f, lam=l).weight(x)[0] for l in lams]
        assert all(a > b for a, b in zip(pos, pos[1:]))  # F>0: decreasing
        neg = [en.ConstantEnergy(-f, lam=l).weight(x)[0] for l in lams]
        assert all(a < b for a, b in zip(neg, neg[1:]))  # F<0: increasing

    def test_constant_energy_gives_equal_weights(self):
        F = en.ConstantEnergy(1.3, lam=2.0)
        w = F.weight(np.random.default_rng(0).normal(size=(50, 2)))
        assert w.max() == w.min()


class TestRegionEnergies:
    def test_circles_inner_ring_strongly_negative(self, circles_data):
        F = en.RegionEnergy("circles", 5.0)
        vals = F.evaluate(circles_data.retain_points)
        assert np.all(vals < 0.0)
        assert vals.mean() < -1.5  # ring core sits deep in the retain basin

    def test_circles_outer_ring_strongly_positive(self, circles_data):
        F = en.RegionEnergy("circles", 5.0)
        vals = F.evaluate(circles_data.forget_points)
        assert np.all(vals > 0.0)
        assert vals.mean() > 1.5

    def test_saturation_bounds_energy(self):
        F = en.RegionEnergy("gaussians6", 5.0)
        grid = np.random.default_rng(0).uniform(-3, 3, size=(500, 2))
        vals = F.evaluate(grid)
        assert np.all(np.abs(vals) < en.ENERGY_SATURATION)

    def test_non_finite_points_rejected(self):
        F = en.RegionEnergy("circles", 5.0)
        with pytest.raises(ValueError):
            F.evaluate(np.array([[np.inf, 0.0]]))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            en.RegionEnergy("spirals", 5.0)


class TestInversion:
    def test_invert_negates_pointwise(self, circles_data):
        F = en.RegionEnergy("circles", 5.0)
        G = en.InvertedEnergy(F)
        x = circles_data.points[:100]
        np.testing.assert_array_equal(G.evaluate(x), -F.evaluate(x))

    def test_double_inversion_identity(self, circles_data):
        F = en.RegionEnergy("moons", 2.0)
        x = np.random.default_rng(1).uniform(-2, 2, size=(64, 2))
        np.testing.assert_array_equal(en.InvertedEnergy(en.InvertedEnergy(F)).evaluate(x), F.evaluate(x))

    def test_weights_flip_exactly(self):
        F = en.ConstantEnergy(np.log(3.0), lam=1.0)  # weight 0.25
        G = en.InvertedEnergy(F)
        x = np.zeros((3, 2))
        np.testing.assert_allclose(G.weight(x), 0.75, rtol=1e-14)
        np.testing.assert_allclose(F.weight(x) + G.weight(x), 1.0, rtol=0, atol=0)

    def test_inverted_circles_suppresses_inner_ring(self, circles_data):
        G = en.InvertedEnergy(en.RegionEnergy("circles", 5.0))
        w = G.weight(circles_data.retain_points)
        assert np.all(w < 0.5)


class TestClassifierEnergy:
    def test_symmetric_probability_gives_half_weight(self):
        # logit(0.5) = 0, so the weight is exactly sigma(0)
        probs = np.array([0.5])
        for lam in (0.5, 1.0, 2.0, 5.0):
            w = en.sigmoid(-lam * (np.log(probs) - np.log1p(-probs)))
            np.testing.assert_allclose(w, 0.5)

    def test_proposition_closed_form_quarter(self, circles_classifier):
        # C = 0.75, lam = 1 -> (1-C) / ((1-C) + C) = 0.25
        c = 0.75
        f = np.log(c) - np.log1p(-c)
        np.testing.assert_allclose(en.sigmoid(-1.0 * f), 0.25, rtol=1e-14)

    def test_proposition_closed_form_lam2(self):
        # C = 0.9, lam = 2 -> 0.01 / (0.01 + 0.81)
        c = 0.9
        f = np.log(c) - np.log1p(-c)
        expected = 0.1**2 / (0.1**2 + 0.9**2)
        np.testing.assert_allclose(en.sigmoid(-2.0 * f), expected, rtol=1e-12)

    def test_identity_against_power_form_grid(self):
        # sigma(-lam logit C) == (1-C)^lam / ((1-C)^lam + C^lam) within 1e-12
        cs = np.arange(0.01, 0.995, 0.01)
        for lam in (0.5, 1.0, 2.0, 5.0):
            logit = np.log(cs) - np.log1p(-cs)
            lhs = en.sigmoid(-lam * logit)
            rhs = (1 - cs) ** lam / ((1 - cs) ** lam + cs**lam)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_from_classifier_weight_matches_power_form(self, circles_classifier):
        F = en.ClassifierEnergy(circles_classifier, lam=2.0)
        x = np.random.default_rng(0).uniform(-1.5, 1.5, size=(200, 2))
        c = circles_classifier.predict_proba(x)
        expected = (1 - c) ** 2.0 / ((1 - c) ** 2.0 + c**2.0)
        np.testing.assert_allclose(F.weight(x), expected, atol=1e-12)

    def test_probabilities_clamped_inside_unit_interval(self, circles_classifier):
        far = np.array([[50.0, 50.0], [-50.0, -50.0], [0.0, 0.0]])
        c = circles_classifier.predict_proba(far)
        assert np.all(c >= en.CLASSIFIER_PROB_CLAMP)
        assert np.all(c <= 1.0 - en.CLASSIFIER_PROB_CLAMP)


class TestTrainClassifier:
    def test_single_class_rejected(self, circles_data):
        with pytest.raises(ValueError):
            en.train_classifier(circles_data.subset(ds.RETAIN))

    def test_holdout_accuracy_on_circles(self, circles_classifier):
        assert circles_classifier.holdout_accuracy >= 0.98

    def test_deterministic_training(self, circles_data):
        cfg = en.ClassifierConfig(steps=150, seed=5)
        a = en.train_classifier(circles_data, cfg)
        b = en.train_classifier(circles_data, cfg)
        np.testing.assert_array_equal(a.net.theta, b.net.theta)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["moons", "gaussians6", "checkerboard"])
    def test_holdout_accuracy_all_benchmarks(self, name):
        data = ds.generate(name, 1500, 3)
        clf = en.train_classifier(data, en.ClassifierConfig(steps=1200, seed=0))
        assert clf.holdout_accuracy >= 0.95
