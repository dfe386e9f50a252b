"""Path primitives, losses, couplings, training loop, and the integrator."""

import itertools
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import CallableEnergy, ConstantEnergy, velocity

from cflow import datasets as ds
from cflow import energy as en
from cflow import flow
from cflow.config import ConfigError
from cflow.diffcore import Mlp, nn, velocity_mlp


def brute_force_assignment_cost(x0, x1):
    """Factorial-enumeration oracle for the minimal pairing cost."""
    n = len(x0)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(((x0[i] - x1[p]) ** 2).sum() for i, p in enumerate(perm))
        best = min(best, cost)
    return best


def linear_field_model(n_steps=10):
    """Single linear layer computing v(t, x) = x (time column zeroed)."""
    net = Mlp([3, 2], seed=0)
    net.layers[0][0][...] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    net.layers[0][1][...] = 0.0
    return flow.FlowModel(net, n_steps=n_steps)


def constant_field_model(vec, n_steps=10):
    net = Mlp([3, 2], seed=0)
    net.layers[0][0][...] = 0.0
    net.layers[0][1][...] = vec
    return flow.FlowModel(net, n_steps=n_steps)


class TestPathPrimitives:
    def test_interpolate_endpoints(self):
        x0 = np.array([1.0, 2.0])
        x1 = np.array([-3.0, 0.5])
        np.testing.assert_array_equal(flow.interpolate(x0, x1, 0.0), x0)
        np.testing.assert_array_equal(flow.interpolate(x0, x1, 1.0), x1)

    def test_interpolate_midpoint(self):
        np.testing.assert_array_equal(
            flow.interpolate(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5), [1.0, 2.0]
        )

    def test_interpolate_rejects_t_outside_unit_interval(self):
        x = np.zeros(2)
        with pytest.raises(ValueError):
            flow.interpolate(x, x, 1.5)
        with pytest.raises(ValueError):
            flow.interpolate(x, x, -0.1)

    def test_conditional_sample_sigma_zero_is_interpolant(self):
        x0 = np.random.default_rng(0).normal(size=(20, 2))
        x1 = np.random.default_rng(1).normal(size=(20, 2))
        t = np.random.default_rng(2).uniform(size=20)
        np.testing.assert_array_equal(
            flow.conditional_sample(x0, x1, t, 0.0),
            flow.interpolate(x0, x1, t),
        )

    def test_conditional_sample_unit_variance(self):
        rng = np.random.default_rng(3)
        x0 = np.zeros((100_000, 2))
        x1 = np.ones((100_000, 2))
        draws = flow.conditional_sample(x0, x1, 0.3, 1.0, rng)
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            flow.conditional_sample(np.zeros(2), np.ones(2), 0.5, -1.0)

    def test_target_velocity(self):
        np.testing.assert_array_equal(
            flow.target_velocity(np.array([0.0, 0.0]), np.array([1.0, 2.0])), [1.0, 2.0]
        )
        a = np.random.default_rng(0).normal(size=(7, 2))
        b = np.random.default_rng(1).normal(size=(7, 2))
        np.testing.assert_array_equal(
            flow.target_velocity(a, b), -flow.target_velocity(b, a)
        )
        np.testing.assert_array_equal(flow.target_velocity(a, a), np.zeros_like(a))


class TestLosses:
    def test_cfm_zero_field_unit_error(self):
        model = constant_field_model([0.0, 0.0]).field
        coup = flow.independent_coupling(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        loss = flow.cfm_loss(model, coup, np.array([0.37]))
        assert loss.item() == pytest.approx(1.0)

    def test_cfm_oracle_field_zero_loss(self):
        # constant field equal to the pair displacement: perfect regression
        model = constant_field_model([1.0, -2.0]).field
        coup = flow.independent_coupling(np.array([[0.5, 0.5]]), np.array([[1.5, -1.5]]))
        loss = flow.cfm_loss(model, coup, np.array([0.9]))
        assert loss.item() == pytest.approx(0.0)

    def test_cfm_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        model = velocity_mlp(seed=0)
        for _ in range(5):
            coup = flow.independent_coupling(rng.normal(size=(16, 2)), rng.normal(size=(16, 2)))
            assert flow.cfm_loss(model, coup, rng.uniform(size=16)).item() >= 0.0

    def test_empty_batch_rejected(self):
        model = velocity_mlp(seed=0)
        coup = flow.Coupling(x0=np.zeros((0, 2)), x1=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            flow.cfm_loss(model, coup, np.zeros(0))

    def test_erfm_single_pair_hand_value(self):
        # w = sigma(0) = 0.5; error 1.0; normalized: 0.5 * 1 / 0.5 = 1.0
        model = constant_field_model([0.0, 0.0]).field
        coup = flow.independent_coupling(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        F = ConstantEnergy(0.0, lam=3.0)
        loss = flow.erfm_loss(model, coup, np.array([0.4]), F.weight(coup.x1))
        assert loss.item() == pytest.approx(1.0)

    def test_erfm_two_pair_weighted_arithmetic(self):
        # errors {1, 4}, weights {0.5, 0.25} -> (0.5 + 1.0) / 0.75 = 2.0
        model = constant_field_model([0.0, 0.0]).field
        x0 = np.array([[0.0, 0.0], [0.0, 0.0]])
        x1 = np.array([[1.0, 0.0], [2.0, 0.0]])  # errors 1 and 4
        coup = flow.independent_coupling(x0, x1)
        F = CallableEnergy(lambda p: np.where(p[:, 0] > 1.5, np.log(3.0), 0.0), lam=1.0)
        np.testing.assert_allclose(F.weight(x1), [0.5, 0.25], rtol=1e-14)
        loss = flow.erfm_loss(model, coup, np.array([0.0, 0.0]), F.weight(coup.x1))
        assert loss.item() == pytest.approx(2.0, rel=1e-12)

    def test_erfm_constant_energy_equals_cfm_bitwise(self):
        rng = np.random.default_rng(7)
        model = velocity_mlp(seed=7)
        coup = flow.independent_coupling(rng.normal(size=(32, 2)), rng.normal(size=(32, 2)))
        t = rng.uniform(size=32)
        F = ConstantEnergy(1.234, lam=2.0)
        loss = flow.erfm_loss(model, coup, t, F.weight(coup.x1))
        assert loss.item() == flow.cfm_loss(model, coup, t).item()

    def test_erfm_fully_suppressed_batch_rejected(self):
        model = velocity_mlp(seed=0)
        coup = flow.independent_coupling(np.zeros((4, 2)), np.zeros((4, 2)))
        F = ConstantEnergy(4.9, lam=1000.0)  # weights ~ sigma(-4900) = 0
        with pytest.raises(flow.FullySuppressedBatchError):
            flow.erfm_loss(model, coup, np.full(4, 0.5), F.weight(coup.x1))

    def test_erfm_needs_one_weight_per_pair(self):
        model = velocity_mlp(seed=0)
        coup = flow.independent_coupling(np.zeros((4, 2)), np.ones((4, 2)))
        for w in (np.ones(3), np.ones((4, 1)), np.float64(1.0)):
            with pytest.raises(ValueError, match="one weight per pair"):
                flow.erfm_loss(model, coup, np.full(4, 0.5), w)

    def test_erfm_unnormalized_form(self):
        model = constant_field_model([0.0, 0.0]).field
        x0 = np.array([[0.0, 0.0], [0.0, 0.0]])
        x1 = np.array([[1.0, 0.0], [2.0, 0.0]])
        coup = flow.independent_coupling(x0, x1)
        F = CallableEnergy(lambda p: np.where(p[:, 0] > 1.5, np.log(3.0), 0.0), lam=1.0)
        w = F.weight(coup.x1)
        loss = flow.erfm_loss(model, coup, np.zeros(2), w, normalized=False)
        # mean(w * e) = (0.5*1 + 0.25*4) / 2
        assert loss.item() == pytest.approx(0.75, rel=1e-12)


class TestOtCoupling:
    def test_two_point_crossing(self):
        x0 = np.array([[0.0, 0.0], [2.0, 0.0]])
        x1 = np.array([[2.0, 0.0], [0.0, 0.0]])
        coup = flow.ot_coupling(x0, x1)
        assert coup.cost == pytest.approx(0.0)
        np.testing.assert_array_equal(coup.x1, x0)

    def test_single_pair(self):
        x0 = np.array([[0.0, 0.0]])
        x1 = np.array([[3.0, 4.0]])
        coup = flow.ot_coupling(x0, x1)
        assert coup.cost == pytest.approx(25.0)

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force_n6(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 7))
        x0 = rng.normal(size=(n, 2))
        x1 = rng.normal(size=(n, 2))
        coup = flow.ot_coupling(x0, x1)
        assert coup.cost == pytest.approx(brute_force_assignment_cost(x0, x1), rel=1e-12)

    @pytest.mark.parametrize("n", [32, 256])
    def test_never_worse_than_independent(self, n):
        rng = np.random.default_rng(n)
        x0 = rng.normal(size=(n, 2))
        x1 = rng.normal(size=(n, 2))
        coup = flow.ot_coupling(x0, x1)
        assert coup.cost <= flow.pairing_cost(x0, x1) + 1e-12

    def test_marginals_preserved(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(40, 2))
        x1 = rng.normal(size=(40, 2))
        coup = flow.ot_coupling(x0, x1)
        np.testing.assert_array_equal(coup.x0, x0)
        a = sorted(map(tuple, coup.x1))
        b = sorted(map(tuple, x1))
        assert a == b

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flow.ot_coupling(np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 255, 256, 257])
    def test_cost_matrix_is_the_whole_matrix_expression_bit_for_bit(self, n, duplicated, monkeypatch):
        rng = np.random.default_rng([n, duplicated])
        x0, x1 = rng.normal(size=(2, n, 2))
        if duplicated:  # repeated rows: equal costs, ties for the solver
            x0[n // 2:] = x0[0]
            x1[1::2] = x1[0]
        reference = (x0 * x0).sum(1)[:, None] + (x1 * x1).sum(1)[None, :] - 2.0 * (x0 @ x1.T)
        np.maximum(reference, 0.0, out=reference)
        solver, seen = flow.ot_solver(), []

        def spy(cost):
            seen.append(cost.copy())
            return solver(cost)

        monkeypatch.setattr(flow, "ot_solver", lambda: spy)
        coup = flow.ot_coupling(x0, x1)
        _, cols = solver(reference)
        assert len(seen) == 1 and seen[0].tobytes() == reference.tobytes()
        assert coup.x1.tobytes() == x1[cols].tobytes()
        assert struct.pack("<d", coup.cost) == struct.pack("<d", float(((x0 - x1[cols]) ** 2).sum()))

    def test_a_256_row_job_holds_one_cost_matrix(self):
        rng = np.random.default_rng(256)
        x0, x1 = rng.normal(size=(2, 256, 2))
        flow._ot_job(x0, x1)  # the solver's first load is not the job's memory
        tracemalloc.start()
        try:
            flow._ot_job(x0, x1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 256 x 256 matrix is 512 KiB; the whole-matrix expression peaked at 1,025 KiB
        assert peak <= 768 * 1024, peak / 1024


class TestIntegrator:
    def test_constant_field_exact(self):
        model = constant_field_model([1.0, 0.0])
        for n_steps in (1, 3, 10, 50):
            out = flow.integrate(lambda t, y: velocity(model, t, y), np.zeros((1, 2)), n_steps)
            np.testing.assert_allclose(out, [[1.0, 0.0]], rtol=1e-12)

    def test_zero_field_identity(self):
        model = constant_field_model([0.0, 0.0])
        x0 = np.random.default_rng(0).normal(size=(6, 2))
        out = flow.integrate(lambda t, y: velocity(model, t, y), x0, 10)
        np.testing.assert_array_equal(out, x0)

    def test_linear_field_euler_recurrence(self):
        # v(t, x) = x with 10 steps: x_N = (1 + 1/10)^10 * x_0
        model = linear_field_model()
        out = flow.integrate(lambda t, y: velocity(model, t, y), np.array([[1.0, 0.0]]), 10)
        assert out[0, 0] == pytest.approx(1.1**10, rel=1e-12)
        assert out[0, 0] == pytest.approx(2.5937424601, rel=1e-10)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            flow.integrate(lambda t, y: y, np.zeros((1, 2)), 0)

    def test_first_order_convergence_on_linear_field(self):
        # halving dt halves the error against a fine reference
        model = linear_field_model()
        x0 = np.array([[1.0, 0.0]])
        ref = flow.integrate(lambda t, y: velocity(model, t, y), x0, 10_000)[0, 0]
        errors = []
        steps = [10, 20, 40, 80, 160]
        for n in steps:
            out = flow.integrate(lambda t, y: velocity(model, t, y), x0, n)[0, 0]
            errors.append(abs(out - ref))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert -1.2 <= slope <= -0.8


class TestSamplingAndTrajectory:
    def test_sample_zero_field_reproduces_base_draw(self):
        model = constant_field_model([0.0, 0.0])
        out = model.sample(50, seed=9)
        base = ds.GaussianSampler(seed=9).sample(50)
        np.testing.assert_array_equal(out, base)

    def test_sample_deterministic(self):
        model = linear_field_model()
        a = model.sample(20, seed=3)
        b = model.sample(20, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_trajectory_two_snapshots_are_endpoints(self):
        model = linear_field_model()
        x0 = np.random.default_rng(0).normal(size=(8, 2))
        snaps = flow.trajectory(model, x0, 10, 2)
        assert len(snaps) == 2
        assert snaps[0][0] == 0.0 and snaps[1][0] == 1.0
        np.testing.assert_array_equal(snaps[0][1], x0)

    def test_trajectory_final_matches_sample(self):
        model = linear_field_model()
        x0 = model.base_states(12, seed=4)
        snaps = flow.trajectory(model, x0, 10, 4)
        np.testing.assert_array_equal(snaps[-1][1], model.sample(12, seed=4))
        # snapshot times are k * dt, which is not k / n_steps in the last bit
        assert [t for t, _ in snaps] == [0.0, 3 * 0.1, 7 * 0.1, 1.0]
        seen = []
        out = flow.integrate(lambda t, y: velocity(model, t, y), x0, 10, on_step=lambda k, x: seen.append((k, x)))
        assert [k for k, _ in seen] == list(range(1, 11))
        np.testing.assert_array_equal(seen[-1][1], out)
        np.testing.assert_array_equal(out, snaps[-1][1])

    def test_on_step_gets_every_state_as_its_own_array(self):
        def field(t, x):
            return np.sin(x) + t

        x0 = np.random.default_rng(2).normal(size=(7, 2))
        kept = []
        out = flow.integrate(field, x0, 6, on_step=lambda k, x: kept.append((k, x)))
        assert [k for k, _ in kept] == list(range(1, 7))
        x, dt = x0, 1.0 / 6
        for k, state in kept:
            x = x + dt * field((k - 1) * dt, x)
            np.testing.assert_array_equal(state, x)
        np.testing.assert_array_equal(out, x)
        states = [x0] + [state for _, state in kept]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(states, 2))

    @pytest.mark.parametrize("n", [100, 1000], ids=["one-share", "two-shares"])
    @pytest.mark.parametrize("hidden", [(), (64, 32)], ids=["linear", "64-32"])
    def test_trajectory_snapshots_are_separate_states(self, monkeypatch, n, hidden):
        executor = ThreadPoolExecutor(2)
        monkeypatch.setattr(nn, "_pool", nn._Pool(executor, 2))
        net = Mlp([3, *hidden, 2], seed=5)
        for _, b in net.layers:
            b[...] = 0.1
        model = flow.FlowModel(net, n_steps=8)
        assert len(nn.row_shares([net], n)) == (2 if n == 100 else 3)
        x0 = np.random.default_rng(n).normal(size=(n, 2))
        snaps = flow.trajectory(model, x0, 8, 9)
        executor.shutdown()
        x, dt = x0, 1.0 / 8
        for k, (t, state) in enumerate(snaps):
            assert t == k * dt
            np.testing.assert_array_equal(state, x)
            x = x + dt * net.forward_raw(np.column_stack([x, np.full(n, t)]))
        states = [x0] + [state for _, state in snaps]
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(states, 2))

    def test_trajectory_zero_field_all_identical(self):
        model = constant_field_model([0.0, 0.0])
        x0 = np.random.default_rng(1).normal(size=(5, 2))
        snaps = flow.trajectory(model, x0, 10, 5)
        for _, batch in snaps:
            np.testing.assert_array_equal(batch, x0)

    def test_trajectory_snapshot_bounds_checked(self):
        model = linear_field_model()
        with pytest.raises(ValueError):
            flow.trajectory(model, np.zeros((2, 2)), 4, 6)

    @pytest.mark.parametrize("rows", [2, 1000])
    def test_push_rejects_a_zero_step_count(self, rows):
        # 1,000 rows take shares on a pool of more than one thread
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            linear_field_model().push(np.zeros((rows, 2)), n_steps=0)

    def test_chain_push_uses_per_stage_steps(self):
        inner = constant_field_model([1.0, 0.0], n_steps=4)
        outer = flow.FlowModel(constant_field_model([0.0, 1.0]).field, parent=inner, n_steps=8)
        out = outer.push(np.zeros((1, 2)))
        np.testing.assert_allclose(out, [[1.0, 1.0]], rtol=1e-12)

    def test_model_sampler_requires_model(self):
        with pytest.raises(ValueError):
            flow.ModelSampler(None, seed=0)


class TestTrainConfigValidation:
    def test_unknown_mode_rejected(self):
        data = ds.generate("circles", 64, 0)
        with pytest.raises(ValueError):
            flow.train(flow.TrainConfig(steps=1, batch=8), ds.GaussianSampler(seed=0), data,
                       mode="distill")

    def test_unlearn_records_the_energy_lam(self):
        points = ds.generate("circles", 64, seed=0).points
        cfg = flow.TrainConfig(steps=1, batch=8, hidden=(8,))
        energy = en.RegionEnergy("circles", 2.5)
        model = flow.train(cfg, ds.EmpiricalSampler(points, seed=1), energy, mode="unlearn-erfm")
        assert model.provenance["lam"] == 2.5
        learned = flow.train(cfg, ds.GaussianSampler(seed=1), ds.generate("circles", 64, 0))
        assert learned.provenance["lam"] is None

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            flow.TrainConfig(sigma=-0.5)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"steps": True}, "train.steps must be an integer, got True"),
            ({"batch": 32.0}, "train.batch must be an integer, got 32.0"),
            ({"hidden": (8, 0)}, "train.hidden[1] must be >= 1, got 0"),
            ({"lr": -1}, "train.lr must be positive, got -1"),
            ({"lr": float("nan")}, "train.lr must be a finite number, got nan"),
            ({"integration_steps": "10"}, "train.integration_steps must be an integer, got '10'"),
            ({"optimizer": "rmsprop"}, "train.optimizer must be adam|sgd, got 'rmsprop'"),
        ],
    )
    def test_bad_field_rejected_at_construction(self, kw, message):
        with pytest.raises(ConfigError) as info:
            flow.TrainConfig(**kw)
        assert str(info.value) == message

    def test_fields_take_their_normal_form(self):
        cfg = flow.TrainConfig(lr=1, hidden=[8, 8])
        assert type(cfg.lr) is float and cfg.hidden == (8, 8)

    def test_refit_coupling_defaults_to_ot(self):
        data = ds.generate("circles", 64, 0)
        cfg = flow.TrainConfig(steps=2, batch=8, hidden=(8,))
        model = flow.train(cfg, ds.GaussianSampler(seed=0), data, mode="refit-ot")
        assert list(model.loss_trace) == ["loss", "ot_cost", "independent_cost"]

    def test_mode_target_mismatch_rejected(self):
        data = ds.generate("circles", 64, 0)
        q0 = ds.GaussianSampler(seed=0)
        cfg = flow.TrainConfig(steps=1, batch=8)
        with pytest.raises(TypeError):
            flow.train(cfg, q0, ConstantEnergy(0.0), mode="learn")
        with pytest.raises(TypeError):
            flow.train(cfg, q0, data, mode="unlearn-erfm")

    def test_finetune_requires_init(self):
        data = ds.generate("circles", 64, 0)
        q0 = ds.GaussianSampler(seed=0)
        with pytest.raises(ValueError):
            flow.train(flow.TrainConfig(steps=1, batch=8), q0, data, mode="finetune")

    def test_unlearn_rejects_ot_coupling(self):
        q0 = ds.GaussianSampler(seed=0)
        cfg = flow.TrainConfig(steps=1, batch=8, coupling="ot")
        with pytest.raises(ValueError):
            flow.train(cfg, q0, ConstantEnergy(0.0), mode="unlearn-erfm")


class TestTraining:
    def test_loss_decreases_on_circles(self):
        # the CFM objective has an irreducible conditional-variance floor
        # (~70% of the early-window mean for gaussian sources and
        # independent pairs), so the check is a strict decrease toward it
        data = ds.generate("circles", 2000, 0)
        cfg = flow.TrainConfig(steps=600, batch=128)
        model = flow.train(cfg, ds.GaussianSampler(seed=1), data, mode="learn", seed=0)
        losses = np.array(model.loss_trace["loss"])
        head = losses[:60].mean()
        tail = losses[-60:].mean()
        assert tail < 0.9 * head
        # and the fittable part is mostly gone: halving the window again
        # moves the mean by little
        assert abs(losses[-120:-60].mean() - tail) < 0.1 * tail

    def test_training_seeded_bit_reproducible(self):
        data = ds.generate("moons", 512, 2)
        cfg = flow.TrainConfig(steps=40, batch=64)
        m1 = flow.train(cfg, ds.GaussianSampler(seed=9), data, mode="learn", seed=5)
        m2 = flow.train(cfg, ds.GaussianSampler(seed=9), data, mode="learn", seed=5)
        np.testing.assert_array_equal(m1.field.theta, m2.field.theta)

    def test_refit_ot_cost_never_exceeds_independent(self):
        data = ds.generate("circles", 512, 1)
        cfg = flow.TrainConfig(steps=30, batch=64)
        base = flow.FlowModel(velocity_mlp(seed=1), n_steps=10)
        q0 = flow.ModelSampler(base, seed=4)
        model = flow.train(cfg, q0, data.subset(ds.RETAIN), mode="refit-ot", seed=3, parent=base)
        ot = np.array(model.loss_trace["ot_cost"])
        indep = np.array(model.loss_trace["independent_cost"])
        assert len(ot) == 30
        assert np.all(ot <= indep + 1e-9)

    def test_unlearn_resamples_suppressed_batches(self):
        # all-forget region: most batches rejected, training still completes
        F = CallableEnergy(lambda p: np.full(p.shape[0], 4.9), lam=10.0)
        q0 = ds.GaussianSampler(seed=0)
        cfg = flow.TrainConfig(steps=2, batch=4)
        with pytest.raises(flow.FullySuppressedBatchError):
            flow.train(cfg, q0, F, mode="unlearn-erfm", seed=0)


class PoolFreeSampler:
    """Makes an EmpiricalSampler's draws through ``sample`` alone, with no
    pool for ``train`` to score ahead of time."""

    def __init__(self, points, seed):
        self._inner = ds.EmpiricalSampler(points, seed=seed)

    def sample(self, n):
        return self._inner.sample(n)


class CountingEnergy(CallableEnergy):
    """Wraps another energy's field and counts the calls that reach it."""

    def __init__(self, inner):
        super().__init__(self._count, lam=inner.lam)
        self.inner = inner
        self.calls = 0

    def _count(self, points):
        self.calls += 1
        return self.inner.evaluate(points)


def _circles_classifier_energy():
    data = ds.generate("circles", 400, seed=8)
    clf = en.train_classifier(data, en.ClassifierConfig(steps=60, batch=32, seed=9))
    return en.ClassifierEnergy(clf, lam=5.0)


class TestPoolWeights:
    """unlearn-erfm scores an EmpiricalSampler's pool once per stage."""

    @staticmethod
    def _train_both(points, make_energy, **cfg_kw):
        cfg = flow.TrainConfig(hidden=(16, 16), **cfg_kw)
        runs = []
        for sampler in (ds.EmpiricalSampler(points, seed=4), PoolFreeSampler(points, seed=4)):
            energy = CountingEnergy(make_energy())
            model = flow.train(cfg, sampler, energy, mode="unlearn-erfm", seed=3)
            runs.append((model, energy.calls))
        return runs

    # the analytic energy scores every row on its own, so any sizes agree; a
    # classifier's matmuls may round the last rows of a block differently,
    # so its batch and pool sizes are multiples of 4 (see flow.train)
    @pytest.mark.parametrize(
        "bench, n, batch, make_energy",
        [
            ("checkerboard", 301, 27, lambda: en.RegionEnergy("checkerboard", 5.0)),
            ("circles", 512, 32, _circles_classifier_energy),
        ],
        ids=["region-odd-sizes", "classifier"],
    )
    def test_pool_and_per_batch_weights_train_identically(self, bench, n, batch, make_energy):
        points = ds.generate(bench, n, seed=1).points
        (pooled, pool_calls), (plain, batch_calls) = self._train_both(
            points, make_energy, steps=25, batch=batch, sigma=0.05
        )
        np.testing.assert_array_equal(pooled.field.theta, plain.field.theta)
        assert pooled.loss_trace == plain.loss_trace
        assert list(pooled.loss_trace) == ["loss", "weight_mean", "ess_frac"]
        assert pool_calls == 1
        assert batch_calls == 25

    def test_mostly_suppressed_pool_resamples_identically(self):
        # 1 point in 10 carries weight; every other weight is ~5e-22, so most
        # batches of 4 are fully suppressed and drawn again
        points = ds.generate("circles", 400, seed=2).points
        keep = np.zeros(len(points), dtype=bool)
        keep[::10] = True

        def make_energy():
            lookup = {tuple(p): -4.9 if k else 4.9 for p, k in zip(points, keep)}
            return CallableEnergy(lambda x: [lookup[tuple(p)] for p in x], lam=10.0)

        (pooled, pool_calls), (plain, batch_calls) = self._train_both(
            points, make_energy, steps=20, batch=4
        )
        np.testing.assert_array_equal(pooled.field.theta, plain.field.theta)
        assert pooled.loss_trace == plain.loss_trace
        assert pool_calls == 1
        assert batch_calls > 20  # suppressed batches were drawn again
        assert min(pooled.loss_trace["weight_mean"]) < 0.5

    def test_model_sampler_source_is_scored_per_batch(self):
        base = flow.FlowModel(velocity_mlp(hidden=(8,), seed=1), n_steps=2)
        energy = CountingEnergy(en.RegionEnergy("circles", 5.0))
        cfg = flow.TrainConfig(steps=6, batch=8, hidden=(8,))
        flow.train(cfg, flow.ModelSampler(base, seed=2), energy, mode="unlearn-erfm", seed=0)
        assert energy.calls == 6


class TestWeightTelemetry:
    @pytest.mark.parametrize(
        "w, mean, ess",
        [
            ([0.5, 0.5, 0.5, 0.5], 0.5, 1.0),
            ([1.0, 1.0, 0.0, 0.0], 0.5, 0.5),
            ([1.0, 0.0, 0.0, 0.0], 0.25, 0.25),
            ([0.2, 0.6], 0.4, 0.8),
        ],
    )
    def test_weight_mean_and_kish_fraction(self, w, mean, ess):
        got_mean, got_ess = flow.weight_stats(np.array(w))
        assert got_mean == pytest.approx(mean, rel=1e-15)
        assert got_ess == pytest.approx(ess, rel=1e-15)
        assert type(got_mean) is float and type(got_ess) is float

    def test_unlearn_trace_records_each_accepted_batch(self):
        points = ds.generate("circles", 64, seed=0).points
        energy = en.RegionEnergy("circles", 2.0)
        cfg = flow.TrainConfig(steps=5, batch=8, hidden=(8,))
        model = flow.train(cfg, ds.EmpiricalSampler(points, seed=1), energy, mode="unlearn-erfm")
        replay = ds.EmpiricalSampler(points, seed=1)
        for step in range(5):
            w = energy.weight(replay.sample(16)[8:])
            assert (model.loss_trace["weight_mean"][step], model.loss_trace["ess_frac"][step]) == (
                flow.weight_stats(w)
            )

    def test_dataset_modes_keep_their_columns(self):
        data = ds.generate("circles", 64, seed=0)
        cfg = flow.TrainConfig(steps=3, batch=8, hidden=(8,))
        model = flow.train(cfg, ds.GaussianSampler(seed=1), data, mode="learn")
        assert list(model.loss_trace) == ["loss"]


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        data = ds.generate("circles", 256, 0)
        cfg = flow.TrainConfig(steps=5, batch=32, integration_steps=7)
        model = flow.train(cfg, ds.GaussianSampler(seed=1), data, mode="learn")
        path = tmp_path / "model.bin"
        flow.save_model(model, path)
        loaded = flow.load_model(path)
        assert loaded.n_steps == 7
        assert loaded.provenance == model.provenance
        np.testing.assert_array_equal(model.field.theta, loaded.field.theta)
        # serialized bytes identical after a round trip
        flow.save_model(loaded, tmp_path / "again.bin")
        assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()

    def test_chain_round_trip_preserves_stage_steps(self, tmp_path):
        inner = constant_field_model([1.0, 0.0], n_steps=4)
        outer = flow.FlowModel(linear_field_model().field, parent=inner, n_steps=9)
        flow.save_model(outer, tmp_path / "chain.bin")
        loaded = flow.load_model(tmp_path / "chain.bin")
        assert [s.n_steps for s in loaded.chain] == [4, 9]
        x = np.random.default_rng(0).normal(size=(6, 2))
        np.testing.assert_array_equal(loaded.push(x), outer.push(x))

    def test_missing_model_checkpoint_rejected(self, tmp_path):
        from cflow.diffcore import CheckpointError

        with pytest.raises(CheckpointError):
            flow.load_model(tmp_path / "ghost.bin")

    def test_every_truncation_rejected(self, tmp_path):
        from cflow.diffcore import CheckpointError

        inner = constant_field_model([1.0, 0.0], n_steps=4)
        outer = flow.FlowModel(linear_field_model().field, parent=inner, n_steps=9)
        path = tmp_path / "chain.bin"
        flow.save_model(outer, path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                flow.load_model(path)

    @pytest.mark.parametrize(
        "meta", [b"\xff\xfe", b"{not json", b"[1, 2]", b'{"provenance": 3}', b"[" * 100_000]
    )
    def test_unreadable_metadata_rejected(self, tmp_path, meta):
        from cflow.diffcore import CheckpointError

        path = tmp_path / "model.bin"
        flow.save_model(linear_field_model(), path)
        raw = path.read_bytes()
        (meta_len,) = struct.unpack("<I", raw[12:16])
        path.write_bytes(raw[:12] + struct.pack("<I", len(meta)) + meta + raw[16 + meta_len :])
        with pytest.raises(CheckpointError):
            flow.load_model(path)
