"""The OT training loop with its assignments solved ahead on the worker pool:
bit-identical to a serial loop solving each step in turn, at every window
edge, for refit-ot and for learn with the ot coupling, with conditional
noise; a job's error reaches the caller with its type and leaves the pool
working; a step's error leaves no job queued or running; and every entry
point the benchmark's tracer wraps runs on the calling thread only, through
OT training, row-share sampling and whole harness stages."""

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cflow import datasets as ds
from cflow import energy as en
from cflow import flow, harness, metrics
from cflow.diffcore import Adam, Mlp, Sgd, Tensor, nn, velocity_mlp

W = flow.OT_WINDOW


class RecordingExecutor(ThreadPoolExecutor):
    """A thread pool that keeps every future it hands out."""

    def __init__(self, threads):
        super().__init__(threads)
        self.jobs = []

    def submit(self, fn, *args, **kwargs):
        job = super().submit(fn, *args, **kwargs)
        self.jobs.append(job)
        return job


@pytest.fixture(params=[1, 2], ids=["pool-1", "pool-2"])
def pool(request, monkeypatch):
    executor = RecordingExecutor(request.param)
    monkeypatch.setattr(nn, "_pool", nn._Pool(executor, request.param))
    yield executor
    executor.shutdown()


def serial_train(cfg, q0, target, seed):
    """The reference: the training loop of an OT mode with each step's
    assignment solved on the calling thread, in turn. The step stream and
    the data sampler take ``flow.train``'s seeds."""
    field = velocity_mlp(d=2, hidden=cfg.hidden, seed=seed)
    opt = Adam(field, lr=cfg.lr)
    rng = np.random.default_rng([seed, 0x7261696E])
    data = ds.EmpiricalSampler(target.points, seed=[seed, 0x64617461])
    trace = {"loss": [], "ot_cost": [], "independent_cost": []}
    for step in range(cfg.steps):
        if cfg.lr_decay == "cosine":
            frac = step / cfg.steps
            opt.lr = cfg.lr * (0.01 + 0.99 * 0.5 * (1.0 + np.cos(np.pi * frac)))
        x0 = q0.sample(cfg.batch)
        x1 = data.sample(cfg.batch)
        t = rng.uniform(0.0, 1.0, size=cfg.batch)
        coupling = flow.ot_coupling(x0, x1)
        trace["ot_cost"].append(coupling.cost)
        trace["independent_cost"].append(flow.pairing_cost(x0, x1))
        loss = flow.cfm_loss(field, coupling, t, sigma=cfg.sigma, rng=rng)
        loss.backward()
        opt.step()
        trace["loss"].append(loss.item())
    return field.theta, trace


def serial_forward(model, x):
    """``forward_raw``'s single-thread loop over all rows."""
    h = x
    for i, (w, b) in enumerate(model.layers):
        h = h @ w
        h += b
        if i != len(model.layers) - 1:
            np.tanh(h, out=h)
    return h


def pool_source(seed=5):
    return ds.EmpiricalSampler(np.random.default_rng(seed).normal(size=(300, 2)), seed=[seed, 1])


CASES = {
    **{f"refit-{steps}": ("refit-ot", dict(steps=steps), pool_source) for steps in (1, W - 1, W, W + 1, 37)},
    "learn-ot": ("learn", dict(steps=23, coupling="ot"), lambda: ds.GaussianSampler(seed=9)),
    "refit-sigma": ("refit-ot", dict(steps=W + 3, sigma=0.1), pool_source),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_solve_ahead_is_the_serial_loop_bit_for_bit(pool, case):
    mode, overrides, source = case
    data = ds.generate("circles", 400, 0)
    cfg = flow.TrainConfig(batch=32, hidden=(16, 16), lr_decay="cosine", **overrides)
    model = flow.train(cfg, source(), data, mode=mode, seed=3)
    theta, trace = serial_train(cfg, source(), data, seed=3)
    np.testing.assert_array_equal(model.field.theta, theta)
    assert list(model.loss_trace) == list(trace)
    for column, values in trace.items():
        assert model.loss_trace[column] == values, column
    assert len(pool.jobs) == cfg.steps


def test_a_job_error_reaches_the_caller_and_the_pool_survives(pool):
    data = ds.generate("circles", 64, 0)
    data.points[17] = np.nan  # the assignment of any batch that draws it fails
    cfg = flow.TrainConfig(steps=40, batch=16, hidden=(8,))
    with pytest.raises(ValueError, match="invalid numeric entries"):
        flow.train(cfg, pool_source(), data, mode="refit-ot")
    assert all(job.done() for job in pool.jobs)
    # the same pool still trains and still runs the row-blocked forward
    good = ds.generate("circles", 64, 0)
    model = flow.train(cfg, pool_source(), good, mode="refit-ot")
    np.testing.assert_array_equal(model.field.theta, serial_train(cfg, pool_source(), good, seed=0)[0])
    net = velocity_mlp(seed=1)
    x = np.random.default_rng(0).normal(size=(4097, 3))
    np.testing.assert_array_equal(net.forward_raw(x), serial_forward(net, x))
    assert len(pool.jobs) > cfg.steps, "the row blocks did not run on the pool"


def test_a_failing_step_leaves_no_job_behind(pool, monkeypatch):
    solve = flow._ot_job

    def slow_solve(x0, x1):
        time.sleep(0.1)
        return solve(x0, x1)

    step = Adam.step
    calls = []

    def fail_third(self):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("step failed")
        step(self)

    monkeypatch.setattr(flow, "_ot_job", slow_solve)
    monkeypatch.setattr(Adam, "step", fail_third)
    cfg = flow.TrainConfig(steps=50, batch=16, hidden=(8,))
    # the caller still holds the error, and with it train's frame
    with pytest.raises(RuntimeError, match="step failed") as info:
        flow.train(cfg, pool_source(), ds.generate("circles", 64, 0), mode="refit-ot")
    assert info.tb is not None
    assert len(pool.jobs) < cfg.steps, "drew batches past the window"
    assert all(job.done() for job in pool.jobs), "a job outlived train"
    assert any(job.cancelled() for job in pool.jobs)


def test_an_early_error_leaves_train_without_waiting_for_a_held_pool(pool):
    # every pool thread is busy, so the jobs train queues never start; its
    # third draw fails before the first step, and the error must not wait
    # for the pool to dequeue the cancelled jobs
    release = threading.Event()
    held = [pool.submit(release.wait, 60) for _ in range(pool._max_workers)]
    source = pool_source()
    sample = source.sample
    draws = []

    def fail_third(n):
        draws.append(n)
        if len(draws) == 3:
            raise RuntimeError("draw failed")
        return sample(n)

    source.sample = fail_third
    cfg = flow.TrainConfig(steps=20, batch=16, hidden=(8,))
    raised = []

    def call():
        with pytest.raises(RuntimeError, match="draw failed"):
            flow.train(cfg, source, ds.generate("circles", 64, 0), mode="refit-ot")
        raised.append(True)

    caller = threading.Thread(target=call)
    try:
        caller.start()
        caller.join(timeout=20)
        assert not caller.is_alive(), "train waited for the held pool"
    finally:
        release.set()
        caller.join(timeout=60)
    assert raised == [True]
    queued = [job for job in pool.jobs if job not in held]
    assert len(queued) == 2 and all(job.cancelled() for job in queued)


# the entry points perfbench/layers.py wraps; its tracer records spans from
# one thread only
TRACED = [
    (Tensor, "backward"),
    (Adam, "step"),
    (Sgd, "step"),
    (Mlp, "forward_raw"),
    (flow, "cfm_loss"),
    (flow, "erfm_loss"),
    (flow, "ot_coupling"),
    (flow, "integrate"),
    (flow, "train"),
    (flow, "save_model"),
    (flow, "load_model"),
    (flow.ModelSampler, "sample"),
    (en.EnergySpec, "weight"),
    (en, "train_classifier"),
    (ds.GaussianSampler, "sample"),
    (ds.EmpiricalSampler, "sample"),
    (metrics, "evaluate_model"),
    (metrics, "mmd2"),
    (metrics, "measure_inference_ms"),
    (harness, "run"),
]


def test_traced_entry_points_run_on_the_calling_thread_only(pool, monkeypatch, tmp_path):
    seen = {}

    for owner, attr in TRACED:
        original = vars(owner)[attr]
        name = f"{owner.__name__.rpartition('.')[2]}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, _original=original, _name=name, **kwargs):
            seen.setdefault(_name, set()).add(threading.get_ident())
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    root = flow.FlowModel(velocity_mlp(hidden=(8,), seed=1), n_steps=3)
    q0 = flow.ModelSampler(root, seed=4)
    cfg = flow.TrainConfig(steps=2 * W + 1, batch=16, hidden=(8,))
    flow.train(cfg, q0, ds.generate("circles", 64, 0), mode="refit-ot")
    assert {"ModelSampler.sample", "EmpiricalSampler.sample", "flow.cfm_loss", "Adam.step"} <= set(seen)
    # the solves run in the pool's private job, not through the public name
    assert "flow.ot_coupling" not in seen

    # row shares: sampling and trajectories of 1,000 rows, then a whole
    # learn and unlearn stage (its source pool, trajectory, evaluation and
    # timing draw all take shares on a pool of two)
    before = len(pool.jobs)
    model = flow.FlowModel(velocity_mlp(hidden=(8,), seed=2), parent=root, n_steps=4)
    model.sample(1000, seed=1)
    flow.trajectory(model, model.base_states(1000, seed=2), model.n_steps, 3)
    # one hand-off each: the sample, the base states and the trajectory
    assert len(pool.jobs) - before == (3 if pool._max_workers == 2 else 0)
    # one range of 4,096 rows, whose hidden layers run in block runs on the pool
    model.sample(4096, seed=3)
    spec = harness.spec_from_dict({
        "name": "traced", "benchmark": "circles", "pipeline": "learn", "out": str(tmp_path / "run"),
        "data_n": 512, "train": {"steps": 20, "batch": 32, "hidden": [8], "integration_steps": 5,
                                 "transport_integration_steps": 5},
        "energy": {"kind": "classifier"}, "unlearn_source": "model", "unlearn_steps": 20,
        "source_pool": 512, "source_steps": 5, "eval_seeds": [0], "eval_n": 300,
    })
    before = len(pool.jobs)
    harness.run(spec)
    harness.run(spec.with_pipeline("unlearn-erfm"))
    assert (len(pool.jobs) > before) == (pool._max_workers == 2)
    assert set().union(*seen.values()) == {threading.get_ident()}
    assert {"harness.run", "energy.train_classifier", "EnergySpec.weight", "flow.erfm_loss",
            "metrics.evaluate_model", "metrics.mmd2", "metrics.measure_inference_ms",
            "flow.save_model", "flow.load_model"} <= set(seen)
