"""The row-blocked inference pass: bit-identical to the serial loop at every
row count, pool size and input layout, on its own and through a whole
sampling chain; a worker's error reaches the caller; concurrent callers
share one pool; and a forked child can still run it."""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from conftest import serial_forward, use_pool

from cflow import flow
from cflow.datasets import GaussianSampler
from cflow.diffcore import Mlp, nn, velocity_mlp

ROWS = [1, 2, 3, 5, 1023, 1024, 1025, 2047, 2048, 2049, 4097, 7813, 12288, 12289, 16387]
NETS = {"velocity": [3, 64, 64, 64, 2], "classifier": [2, 64, 64, 64, 1]}


def net(widths, seed=4):
    """A network with Glorot weights and non-zero biases."""
    m = Mlp(widths, seed=seed)
    rng = np.random.default_rng(seed)
    for _, b in m.layers:
        b[...] = rng.normal(0.0, 0.1, b.shape)
    return m


@pytest.fixture(params=[1, 2], ids=["pool-1", "pool-2"])
def pool_threads(request, monkeypatch):
    executor = use_pool(monkeypatch, request.param)
    yield request.param
    executor.shutdown()


@pytest.mark.parametrize("widths", NETS.values(), ids=NETS.keys())
@pytest.mark.parametrize("n", ROWS)
def test_blocked_forward_is_the_serial_loop_bit_for_bit(monkeypatch, pool_threads, widths, n):
    m = net(widths)
    x = np.random.default_rng(n).normal(size=(n, widths[0]))
    x_before = x.copy()
    runs, threads = [], []
    hidden_rows = nn._hidden_rows

    def spy(layers, x, hidden, lo, hi):
        runs.append((lo, hi))
        threads.append(threading.current_thread())
        hidden_rows(layers, x, hidden, lo, hi)

    monkeypatch.setattr(nn, "_hidden_rows", spy)
    out = m.forward_raw(x)
    np.testing.assert_array_equal(out, serial_forward(m, x))
    np.testing.assert_array_equal(x, x_before)
    if n < 2 * nn.BLOCK_ROWS:
        # one run over all rows, in the calling thread
        assert runs == [(0, n)]
        assert threads == [threading.current_thread()]
    else:
        # one run per thread (at most one per block), cut at block edges,
        # covering every row once
        runs.sort()
        assert len(runs) == min(pool_threads, n // nn.BLOCK_ROWS)
        assert [lo for lo, _ in runs] == [0, *(hi for _, hi in runs[:-1])]
        assert runs[-1][1] == n
        assert all(lo % nn.BLOCK_ROWS == 0 and hi - lo >= nn.BLOCK_ROWS for lo, hi in runs)


@pytest.mark.parametrize("widths", NETS.values(), ids=NETS.keys())
@pytest.mark.parametrize("layout", ["fortran", "column-slice", "row-step"])
def test_blocked_forward_of_a_strided_input(widths, layout):
    d = widths[0]
    base = np.random.default_rng(2).normal(size=(2 * 4097, d + 1))
    x = {"fortran": np.asfortranarray(base[:4097, :d]), "column-slice": base[:4097, :d],
         "row-step": base[::2, :d]}[layout]
    assert not x.flags.c_contiguous
    m = net(widths)
    np.testing.assert_array_equal(m.forward_raw(x), serial_forward(m, x))


def test_chain_sample_is_integration_over_the_serial_field():
    root = flow.FlowModel(net([3, 64, 64, 64, 2], seed=1), n_steps=3)
    model = flow.FlowModel(net([3, 64, 64, 64, 2], seed=2), parent=root, n_steps=4)
    x = GaussianSampler(7, dim=2).sample(12288)
    for stage in model.chain:
        field = stage.field
        x = flow.integrate(
            lambda t, y: serial_forward(field, np.column_stack([y, np.full(len(y), t)])),
            x, stage.n_steps)
    np.testing.assert_array_equal(model.sample(12288, seed=7), x)


def test_worker_error_reaches_the_caller(monkeypatch, pool_threads):
    hidden_rows = nn._hidden_rows

    def fail_last_run(layers, x, hidden, lo, hi):
        if hi == x.shape[0]:
            raise RuntimeError("worker failed")
        hidden_rows(layers, x, hidden, lo, hi)

    m = net(NETS["velocity"])
    x = np.random.default_rng(0).normal(size=(4097, 3))
    monkeypatch.setattr(nn, "_hidden_rows", fail_last_run)
    with pytest.raises(RuntimeError, match="worker failed"):
        m.forward_raw(x)
    # the pool survives a failed call
    monkeypatch.setattr(nn, "_hidden_rows", hidden_rows)
    np.testing.assert_array_equal(m.forward_raw(x), serial_forward(m, x))


def test_concurrent_callers_share_one_pool(monkeypatch):
    # more callers than CPUs, racing to start the pool, each call checked
    monkeypatch.setattr(nn, "_pool", None)
    m = net(NETS["velocity"])
    rng = np.random.default_rng(3)
    inputs = [rng.normal(size=(n, 3)) for n in (2048, 3000, 4097, 5000, 7813, 9001)]
    expected = [serial_forward(m, x) for x in inputs]
    results, pools = {}, set()

    def call(i):
        pools.add(id(nn.inference_pool()))
        results[i] = [m.forward_raw(inputs[i]) for _ in range(3)]

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        if nn._pool is not None:
            nn._pool.executor.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert len(pools) == 1
    for i, want in enumerate(expected):
        for got in results[i]:
            np.testing.assert_array_equal(got, want)


def _forward_in_child(widths):
    assert nn._pool is None, "the child inherited its parent's pool"
    m = net(widths)
    x = np.random.default_rng(1).normal(size=(4097, widths[0]))
    if not np.array_equal(m.forward_raw(x), serial_forward(m, x)):
        sys.exit(1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_the_blocked_forward():
    widths = NETS["velocity"]
    m = net(widths)
    m.forward_raw(np.zeros((4096, 3)))  # the parent's pool is running
    assert nn._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_forward_in_child, args=(widths,))
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in forward_raw")
    assert child.exitcode == 0


def test_small_and_linear_nets_stay_serial(monkeypatch):
    def fail(*args):
        raise AssertionError("the pool ran")

    monkeypatch.setattr(nn, "inference_pool", fail)
    velocity_mlp(seed=0).forward_raw(np.ones((2 * nn.BLOCK_ROWS - 1, 3)))
    linear = Mlp([3, 2], seed=0)
    x = np.random.default_rng(0).normal(size=(3 * nn.BLOCK_ROWS, 3))
    np.testing.assert_array_equal(linear.forward_raw(x), serial_forward(linear, x))
