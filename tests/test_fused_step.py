"""The one-pass training step against a reference written out op by op.

The reference loops below spell out every floating-point operation of a
training step in the order the step takes them: the interpolant, the
conditional noise, the concatenated field input, a forward and backward
that allocate every array afresh, the loss and d(loss)/d(output). The
library's fused loss functions, with their reused buffers, must reproduce
them bit for bit: for both objectives, the classifier, and the buffered
field of the sampler."""

import numpy as np
import pytest
from conftest import CallableEnergy, ConstantEnergy, velocity

from cflow import datasets as ds
from cflow import energy as en
from cflow import flow
from cflow.diffcore import Adam, AutodiffError, Mlp, Tensor, row_sq_error_mean, velocity_mlp


def reference_forward(net, x):
    h, cache = x, []
    for i, (w, b) in enumerate(net.layers):
        cache.append(h)
        h = h @ w
        h += b
        if i != len(net.layers) - 1:
            np.tanh(h, out=h)
    return h, cache


def reference_backward(net, cache, dout):
    g = dout
    for i in range(len(net.layers) - 1, -1, -1):
        h = cache[i]
        gw, gb = net._grad_layers[i]
        np.matmul(h.T, g, out=gw)
        np.sum(g, axis=0, out=gb)
        if i:
            dtanh = h * h
            np.subtract(1.0, dtanh, out=dtanh)
            g = g @ net.layers[i][0].T
            g *= dtanh
    net.grad_fresh = True


def reference_train(cfg, q0, target, mode, seed):
    """``flow.train`` for learn and unlearn-erfm with the independent
    coupling and a fresh field, one op at a time."""
    field = velocity_mlp(d=2, hidden=cfg.hidden, seed=seed)
    opt = Adam(field, lr=cfg.lr)
    rng = np.random.default_rng([seed, 0x7261696E])
    unlearn = mode == "unlearn-erfm"
    data = None if unlearn else ds.EmpiricalSampler(target.points, seed=[seed, 0x64617461])
    pool_w = target.weight(q0.points) if unlearn and isinstance(q0, ds.EmpiricalSampler) else None
    trace = {"loss": []}
    B = cfg.batch
    for step in range(cfg.steps):
        if cfg.lr_decay == "cosine":
            frac = step / cfg.steps
            opt.lr = cfg.lr * (0.01 + 0.99 * 0.5 * (1.0 + np.cos(np.pi * frac)))
        if unlearn:
            for attempt in range(flow.MAX_BATCH_RESAMPLES + 1):
                if pool_w is None:
                    both = q0.sample(2 * B)
                    w = target.weight(both[B:])
                else:
                    idx = q0.sample_indices(2 * B)
                    both, w = q0.points[idx], pool_w[idx[B:]]
                x0, x1 = both[:B], both[B:]
                t = rng.uniform(0.0, 1.0, size=B)
                if w.sum() >= flow.SUPPRESSED_WEIGHT_SUM:
                    break
            mean, ess = flow.weight_stats(w)
            trace.setdefault("weight_mean", []).append(mean)
            trace.setdefault("ess_frac", []).append(ess)
        else:
            x0, x1 = q0.sample(B), data.sample(B)
            t = rng.uniform(0.0, 1.0, size=B)
        tc = t[:, None]
        xt = (1.0 - tc) * x0 + tc * x1
        if cfg.sigma:
            xt = xt + cfg.sigma * rng.standard_normal(xt.shape)
        out, cache = reference_forward(field, np.concatenate([xt, tc], axis=1))
        residual = out - (x1 - x0)
        errors = (residual * residual).sum(axis=1)
        if unlearn and w.max() != w.min():
            total = w.sum()
            value = (w * errors).sum() / total
            coef = w / total
        else:
            value = errors.mean()
            coef = np.full(B, 1.0 / B)
        reference_backward(field, cache, 1.0 * 2.0 * coef[:, None] * residual)
        opt.step()
        trace["loss"].append(float(value))
    return field.theta, trace


def _circles_pool(n=400, seed=2):
    return ds.generate("circles", n, seed=seed).points


def _mostly_suppressed_energy(points):
    # 1 point in 10 carries weight, every other weight is ~5e-22: most
    # batches of 4 are fully suppressed and drawn again
    lookup = {tuple(p): -4.9 if i % 10 == 0 else 4.9 for i, p in enumerate(points)}
    return CallableEnergy(lambda x: [lookup[tuple(p)] for p in x], lam=10.0)


CASES = {
    "learn-sigma": ("learn", dict(sigma=0.1), lambda: ds.GaussianSampler(seed=9),
                    lambda: ds.generate("moons", 400, seed=1)),
    "unlearn-weighted": ("unlearn-erfm", dict(sigma=0.05), lambda: ds.GaussianSampler(seed=4),
                         lambda: en.RegionEnergy("circles", 5.0)),
    "unlearn-constant": ("unlearn-erfm", dict(sigma=0.05), lambda: ds.GaussianSampler(seed=4),
                         lambda: ConstantEnergy(0.3, lam=2.0)),
    "unlearn-resample": ("unlearn-erfm", dict(batch=4),
                         lambda: ds.EmpiricalSampler(_circles_pool(), seed=4),
                         lambda: _mostly_suppressed_energy(_circles_pool())),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_train_is_the_reference_loop_bit_for_bit(case):
    mode, overrides, source, target = case
    cfg = flow.TrainConfig(**{"steps": 30, "batch": 32, "hidden": (16, 16), "lr": 3e-3,
                              "lr_decay": "cosine", **overrides})
    model = flow.train(cfg, source(), target(), mode=mode, seed=3)
    theta, trace = reference_train(cfg, source(), target(), mode, seed=3)
    np.testing.assert_array_equal(model.field.theta, theta)
    assert model.loss_trace == trace
    if overrides.get("batch") == 4:
        assert min(trace["weight_mean"]) < 0.5, "no batch was drawn again"


def test_train_classifier_is_the_reference_bce_loop_bit_for_bit():
    data = ds.generate("circles", 300, seed=8)
    cfg = en.ClassifierConfig(steps=40, batch=32, hidden=(16, 16), seed=9)
    clf = en.train_classifier(data, cfg)

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(data))
    n_holdout = max(1, int(round(cfg.holdout_frac * len(data))))
    train_idx = perm[n_holdout:]
    x_train = data.points[train_idx]
    y_train = data.labels[train_idx].astype(np.float64)
    net = Mlp([2, *cfg.hidden, 1], seed=cfg.seed)
    opt = Adam(net, lr=cfg.lr)
    for _ in range(cfg.steps):
        idx = rng.integers(0, x_train.shape[0], size=cfg.batch)
        z, cache = reference_forward(net, x_train[idx])
        y = y_train[idx].reshape(z.shape)
        sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
        reference_backward(net, cache, 1.0 * (sig - y) / z.size)
        opt.step()
    np.testing.assert_array_equal(clf.net.theta, net.theta)


def test_a_loss_handle_backpropagates_once():
    net = Mlp([3, 8, 2], seed=0)
    x = np.random.default_rng(0).normal(size=(5, 3))
    loss = row_sq_error_mean(net, x, np.zeros((5, 2)))
    assert isinstance(loss, Tensor)
    loss.backward()
    grad = net.grad.copy()
    with pytest.raises(AutodiffError):
        loss.backward()
    np.testing.assert_array_equal(net.grad, grad)


def test_backward_refuses_a_cache_a_later_forward_reused():
    net = Mlp([3, 8, 2], seed=0)
    rng = np.random.default_rng(1)
    first = row_sq_error_mean(net, rng.normal(size=(5, 3)), np.zeros((5, 2)))
    second = row_sq_error_mean(net, rng.normal(size=(5, 3)), np.zeros((5, 2)))
    with pytest.raises(AutodiffError, match="last forward"):
        first.backward()
    second.backward()
    assert net.grad_fresh


def _chain():
    root = flow.FlowModel(velocity_mlp(seed=1), n_steps=4)
    return flow.FlowModel(velocity_mlp(seed=2), parent=root, n_steps=5)


@pytest.mark.parametrize("n", [5, 2048, 4097], ids=["serial", "pooled", "pooled-tail"])
def test_push_is_the_concatenating_field_bit_for_bit(n):
    model = _chain()
    x = np.random.default_rng(n).normal(size=(n, 2))
    mid = flow.integrate(lambda t, y: velocity(model.parent, t, y), x, model.parent.n_steps)
    expected = flow.integrate(lambda t, y: velocity(model, t, y), mid, model.n_steps)
    np.testing.assert_array_equal(model.push(x), expected)
    np.testing.assert_array_equal(model.sample(n, seed=3), model.push(ds.GaussianSampler(3).sample(n)))


def test_every_step_state_is_its_own_array():
    model = _chain()
    x0 = np.random.default_rng(0).normal(size=(2048, 2))
    snaps = flow.trajectory(model, x0, model.n_steps, model.n_steps + 1)
    states = [x for _, x in snaps]
    expected = [x0]
    flow.integrate(lambda t, y: velocity(model, t, y), x0, model.n_steps, on_step=lambda k, x: expected.append(x))
    assert len(states) == model.n_steps + 1
    for got, want in zip(states, expected):
        np.testing.assert_array_equal(got, want)
    for i, a in enumerate(states):
        assert not any(np.shares_memory(a, b) for b in states[i + 1:])
