"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; the expensive
benchmark pipelines run once in a session fixture and are shared by the
reproduction, sweep, inversion, and baseline-ordering checks.
"""

import itertools
import multiprocessing
import os

import numpy as np
import pytest
from conftest import ConstantEnergy, finite_difference_grads, flatten_grads, mmd2_reference, velocity

from cflow import datasets as ds
from cflow import energy as en
from cflow import flow
from cflow import harness
from cflow import metrics as me
from cflow.diffcore import Mlp, velocity_mlp
from cflow.diffcore.nn import row_sq_error_mean

pytestmark = pytest.mark.acceptance

FORGET_RATE_LIMITS = {
    "circles": 0.05,
    "checkerboard": 0.01,
    "moons": 0.05,
    "gaussians6": 0.08,
}


def report_pass(criterion: str, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS  ({detail})")


# ---------------------------------------------------------------------------
# shared pipeline runs (criteria 7-10)
# ---------------------------------------------------------------------------


# the chains' serial wall clock on a 2-vCPU Xeon VM was checkerboard 29.7 s,
# circles 26.2 s, gaussians6 19.4 s and moons 6.7 s
LONGEST_FIRST = ("checkerboard", "circles", "gaussians6", "moons")


def run_chain(bench_and_out):
    """learn -> retrain -> unlearn on one benchmark, plus the circles refit,
    sweep and inversion arms. Each chain writes only under its own ``out``."""
    bench, out = bench_and_out
    spec = harness.benchmark_spec(bench, out=out)
    stage = {}
    stage["learn"] = harness.run(spec)
    stage["retrain"] = harness.run(spec.with_pipeline("retrain"))
    stage["unlearn"] = harness.run(spec.with_pipeline("unlearn-erfm"))
    if bench == "circles":
        stage["refit"] = harness.run(spec.with_pipeline("refit-ot"))
        stage["sweep"] = harness.run(spec.with_pipeline("sweep-lambda"))
        stage["invert"] = harness.run(spec.with_pipeline("invert"))
    return stage


@pytest.fixture(scope="session")
def pipelines(tmp_path_factory):
    """The four benchmark chains of ``run_chain``. Everything is seeded; rows
    hold 3-seed evaluations per stage.

    The chains are independent, so they run in a 2-process spawn pool,
    longest first, when there are two CPUs. Each worker inherits the one
    BLAS thread conftest sets in the environment; a chain's artifacts do
    not depend on the process that runs it.
    """
    root = tmp_path_factory.mktemp("acceptance")
    jobs = [(bench, str(root / bench)) for bench in LONGEST_FIRST]
    if (os.cpu_count() or 1) < 2:
        stages = [run_chain(job) for job in jobs]
    else:
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            stages = pool.map(run_chain, jobs, chunksize=1)
    results = dict(zip(LONGEST_FIRST, stages))
    return {bench: results[bench] for bench in ds.BENCHMARKS}


def mean_metric(artifact, name):
    return float(np.mean([getattr(r, name) for r in artifact.rows]))


# ---------------------------------------------------------------------------
# criterion 1: gradient equivalence of the reweighted loss
# ---------------------------------------------------------------------------


class TestCriterion1GradientEquivalence:
    def test_erfm_gradient_aligns_with_rejection_sampled_cfm(self):
        data = ds.generate("circles", 65536, seed=101)
        q0 = ds.EmpiricalSampler(data.points, seed=7)
        F = en.RegionEnergy("circles", 5.0)
        B = 2**14
        rng = np.random.default_rng(13)
        model = velocity_mlp(seed=99)

        def rejection_sample(n):
            # accept x1 ~ q0 with probability w(x1); valid since w in (0,1)
            chunks, got = [], 0
            while got < n:
                cand = q0.sample(2 * n)
                kept = cand[rng.uniform(size=2 * n) < F.weight(cand)]
                chunks.append(kept)
                got += len(kept)
            return np.vstack(chunks)[:n]

        x0 = q0.sample(B)
        x1 = q0.sample(B)
        t = rng.uniform(size=B)
        loss = flow.erfm_loss(
            model, flow.independent_coupling(x0, x1), t, F.weight(x1), normalized=False
        )
        loss.backward()
        g_erfm = flatten_grads(model)

        x0b = q0.sample(B)
        x1b = rejection_sample(B)
        tb = rng.uniform(size=B)
        flow.cfm_loss(model, flow.independent_coupling(x0b, x1b), tb).backward()
        g_cfm = flatten_grads(model)

        cos = float(g_erfm @ g_cfm / (np.linalg.norm(g_erfm) * np.linalg.norm(g_cfm)))
        assert cos >= 0.99
        report_pass("criterion 1 (gradient equivalence)", f"cosine={cos:.5f}")


# ---------------------------------------------------------------------------
# criterion 2: classifier-energy weight identity
# ---------------------------------------------------------------------------


class TestCriterion2ClassifierIdentity:
    def test_sigmoid_logit_matches_power_form(self):
        cs = np.arange(0.01, 0.9951, 0.01)
        worst = 0.0
        for lam in (0.5, 1.0, 2.0, 5.0):
            logit = np.log(cs) - np.log1p(-cs)
            lhs = en.sigmoid(-lam * logit)
            rhs = (1 - cs) ** lam / ((1 - cs) ** lam + cs**lam)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-12
        report_pass("criterion 2 (classifier-energy identity)", f"max |dev|={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: constant energy degenerates to the plain objective
# ---------------------------------------------------------------------------


class TestCriterion3Degeneracy:
    def test_constant_energy_loss_bit_identical(self):
        rng = np.random.default_rng(31)
        model = velocity_mlp(seed=31)
        for value, lam in ((0.0, 1.0), (2.5, 0.7), (-1.0, 10.0)):
            coup = flow.independent_coupling(
                rng.normal(size=(64, 2)), rng.normal(size=(64, 2))
            )
            t = rng.uniform(size=64)
            F = ConstantEnergy(value, lam=lam)
            a = flow.erfm_loss(model, coup, t, F.weight(coup.x1)).item()
            b = flow.cfm_loss(model, coup, t).item()
            assert a == b  # bit-for-bit
        report_pass("criterion 3 (constant-energy degeneracy)", "bit-identical losses")


# ---------------------------------------------------------------------------
# criterion 4: autodiff vs central finite differences
# ---------------------------------------------------------------------------


class TestCriterion4Autodiff:
    def test_twenty_random_seeds(self):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = Mlp([3, 8, 8, 2], seed=seed)
            x = rng.normal(size=(5, 3))
            target = rng.normal(size=(5, 2))

            def loss_fn():
                out = model.forward_raw(x)
                return float(((out - target) ** 2).sum(axis=1).mean())

            row_sq_error_mean(model, x, target).backward()
            analytic = flatten_grads(model)
            numeric = finite_difference_grads(loss_fn, model.theta)
            scale = np.maximum(np.abs(numeric), 1e-6)
            tol = np.where(np.abs(numeric) < 1e-6, 1e-3, 1e-4)
            dev = np.abs(analytic - numeric) / scale
            assert np.all(dev <= tol)
            worst = max(worst, float(np.max(dev)))
        report_pass("criterion 4 (autodiff correctness)", f"worst rel dev={worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: minibatch OT optimality
# ---------------------------------------------------------------------------


class TestCriterion5OtOptimality:
    def test_matches_brute_force_and_beats_independent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            x0 = rng.normal(size=(n, 2))
            x1 = rng.normal(size=(n, 2))
            coup = flow.ot_coupling(x0, x1)
            best = min(
                sum(((x0[i] - x1[p]) ** 2).sum() for i, p in enumerate(perm))
                for perm in itertools.permutations(range(n))
            )
            assert coup.cost == pytest.approx(best, rel=1e-12, abs=1e-12)
        for n in (32, 256):
            x0 = rng.normal(size=(n, 2))
            x1 = rng.normal(size=(n, 2))
            assert flow.ot_coupling(x0, x1).cost <= flow.pairing_cost(x0, x1) + 1e-12
        report_pass("criterion 5 (OT optimality)", "100 factorial trials + n=32/256")


# ---------------------------------------------------------------------------
# criterion 6: MMD estimator oracle
# ---------------------------------------------------------------------------


class TestCriterion6MmdOracle:
    def test_reference_identity_and_hand_value(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 2)) + 0.7
        fast = me.mmd2(x, y)
        slow = mmd2_reference(x, y)
        assert abs(fast - slow) < 1e-10
        assert me.mmd2(x, x.copy()) < 1e-12
        hand = me.mmd2(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert hand == pytest.approx(2.0 - 2.0 * np.exp(-2.0), rel=1e-12)
        report_pass(
            "criterion 6 (MMD oracle)", f"|fast-slow|={abs(fast - slow):.1e}"
        )


# ---------------------------------------------------------------------------
# criterion 7: 2D benchmark reproduction
# ---------------------------------------------------------------------------


class TestCriterion7BenchmarkReproduction:
    @pytest.mark.parametrize("bench", list(FORGET_RATE_LIMITS))
    def test_forget_rate_threshold(self, pipelines, bench):
        fr = mean_metric(pipelines[bench]["unlearn"], "forget_rate")
        assert fr <= FORGET_RATE_LIMITS[bench], f"{bench}: {fr}"
        report_pass(
            f"criterion 7 forget rate ({bench})",
            f"{fr:.4f} <= {FORGET_RATE_LIMITS[bench]}",
        )

    @pytest.mark.parametrize("bench", list(FORGET_RATE_LIMITS))
    def test_retention_accuracy(self, pipelines, bench):
        acc = mean_metric(pipelines[bench]["unlearn"], "retention_accuracy")
        assert acc >= 0.99
        report_pass(f"criterion 7 retention accuracy ({bench})", f"{acc:.4f} >= 0.99")

    @pytest.mark.parametrize("bench", list(FORGET_RATE_LIMITS))
    def test_mmd_within_5x_of_retrain(self, pipelines, bench):
        ours = mean_metric(pipelines[bench]["unlearn"], "mmd_retain")
        baseline = mean_metric(pipelines[bench]["retrain"], "mmd_retain")
        assert ours <= 5.0 * baseline, f"{bench}: {ours} vs 5x{baseline}"
        report_pass(
            f"criterion 7 retain MMD ({bench})",
            f"{ours:.4f} <= 5 x {baseline:.4f}",
        )


# ---------------------------------------------------------------------------
# criterion 8: suppression-scale monotonicity
# ---------------------------------------------------------------------------


class TestCriterion8LambdaSweep:
    def test_forget_rate_monotone_and_extreme_halving(self, pipelines):
        arms = pipelines["circles"]["sweep"]
        lams = [a.rows[0].lam for a in arms]
        assert lams == [0.5, 2.0, 5.0, 1000.0]
        rates = [mean_metric(a, "forget_rate") for a in arms]
        for a, b in zip(rates, rates[1:]):
            assert b <= a + 0.02, rates
        assert rates[-1] <= 0.5 * rates[0], rates
        report_pass(
            "criterion 8 (lambda monotonicity)",
            "rates " + " -> ".join(f"{r:.3f}" for r in rates),
        )


# ---------------------------------------------------------------------------
# criterion 9: energy inversion recovers the suppressed region
# ---------------------------------------------------------------------------


class TestCriterion9Inversion:
    def test_inverted_model_emits_forgotten_ring(self, pipelines):
        rate = mean_metric(pipelines["circles"]["invert"], "forget_rate")
        assert rate >= 0.90
        report_pass("criterion 9 (energy inversion)", f"outer-ring fraction={rate:.3f}")


# ---------------------------------------------------------------------------
# criterion 10: baseline ordering
# ---------------------------------------------------------------------------


class TestCriterion10BaselineOrdering:
    def test_retrain_never_much_worse_than_erfm(self, pipelines):
        for bench in ds.BENCHMARKS:
            retrain = mean_metric(pipelines[bench]["retrain"], "forget_rate")
            ours = mean_metric(pipelines[bench]["unlearn"], "forget_rate")
            assert retrain <= ours + 0.05, (bench, retrain, ours)
        report_pass("criterion 10 (baseline ordering)", "retrain <= erfm + 0.05 on all")

    def test_refit_reaches_low_forget_rate(self, pipelines):
        rate = mean_metric(pipelines["circles"]["refit"], "forget_rate")
        assert rate <= 0.05
        report_pass("criterion 10 (OT refit)", f"circles refit forget rate={rate:.4f}")


# ---------------------------------------------------------------------------
# criterion 11: first-order integrator convergence
# ---------------------------------------------------------------------------


class TestCriterion11EulerOrder:
    def test_convergence_slope_on_linear_field(self):
        net = Mlp([3, 2], seed=0)
        net.layers[0][0][...] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        net.layers[0][1][...] = 0.0
        model = flow.FlowModel(net, n_steps=10)
        x0 = np.array([[1.0, 0.0]])
        field = lambda t, y: velocity(model, t, y)
        ref = flow.integrate(field, x0, 10_000)[0, 0]
        steps = [10, 20, 40, 80, 100]
        errors = [abs(flow.integrate(field, x0, n)[0, 0] - ref) for n in steps]
        slope = -np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert 0.8 <= slope <= 1.2
        report_pass("criterion 11 (Euler order)", f"slope={slope:.3f}")
