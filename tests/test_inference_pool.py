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
from cflow.diffcore import Mlp, nn

# 15,625 rows are the last a 64->1 layer's product keeps within the small-matrix
# cut-over, 16,384 the first a 64->2 layer takes in two pieces; with 15,626,
# 15,627 and 16,385 to 16,387 every row count mod 4 is past both
ROWS = [1, 2, 3, 5, 1023, 1024, 1025, 2047, 2048, 2049, 4097, 7813, 12288, 12289,
        15625, 15626, 15627, 16385, 16386, 16387, 65536]
# the fewest whole blocks past the cut-over of a 64->2 layer
PIECE_ROWS = 8192
NETS = {"velocity": [3, 64, 64, 64, 2], "classifier": [2, 64, 64, 64, 1]}


def net(widths, seed=4):
    """A network with Glorot weights and non-zero biases."""
    m = Mlp(widths, seed=seed)
    rng = np.random.default_rng(seed)
    for _, b in m.layers:
        b[...] = rng.normal(0.0, 0.1, b.shape)
    return m


@pytest.fixture(params=[1, 2, 4], ids=["pool-1", "pool-2", "pool-4"])
def pool_threads(request, monkeypatch):
    executor = use_pool(monkeypatch, request.param)
    yield request.param
    executor.shutdown()


def expected_pieces(widths, n):
    """The pieces ``forward_raw`` carries one after another: one, unless a
    64->2 output layer over all rows is past the small-matrix cut-over and
    there are two pieces of it."""
    if widths[-1] == 1 or n * widths[-2] * widths[-1] <= nn.SMALL_GEMM_MADDS or n < 2 * PIECE_ROWS:
        return [0, n]
    return [PIECE_ROWS * k for k in range(n // PIECE_ROWS)] + [n]


@pytest.mark.parametrize("widths", NETS.values(), ids=NETS.keys())
@pytest.mark.parametrize("n", ROWS)
def test_blocked_forward_is_the_serial_loop_bit_for_bit(monkeypatch, pool_threads, widths, n):
    m = net(widths)
    x = np.random.default_rng(n).normal(size=(n, widths[0]))
    x_before = x.copy()
    runs = {}
    hidden_rows = nn._hidden_rows

    def spy(plan, rows, out, lo, hi):
        # the row of x where the piece of this run starts
        start = (rows.ctypes.data - x.ctypes.data) // x.strides[0]
        runs.setdefault(start, []).append((lo, hi, threading.current_thread()))
        hidden_rows(plan, rows, out, lo, hi)

    monkeypatch.setattr(nn, "_hidden_rows", spy)
    out = m.forward_raw(x)
    np.testing.assert_array_equal(out, serial_forward(m, x))
    np.testing.assert_array_equal(x, x_before)
    edges = expected_pieces(widths, n)
    assert sorted(runs) == edges[:-1]
    for start, stop in zip(edges[:-1], edges[1:]):
        rows = stop - start
        piece_runs = sorted((lo, hi) for lo, hi, _ in runs[start])
        if rows < 2 * nn.BLOCK_ROWS:
            # one run over all rows, in the calling thread
            assert piece_runs == [(0, rows)]
            assert [thread for *_, thread in runs[start]] == [threading.current_thread()]
        else:
            # one run per thread (at most one per block), cut at block edges,
            # covering every row once
            assert len(piece_runs) == min(pool_threads, rows // nn.BLOCK_ROWS)
            assert [lo for lo, _ in piece_runs] == [0, *(hi for _, hi in piece_runs[:-1])]
            assert piece_runs[-1][1] == rows
            assert all(lo % nn.BLOCK_ROWS == 0 and hi - lo >= nn.BLOCK_ROWS for lo, hi in piece_runs)


@pytest.mark.parametrize("n, cuts, same", [
    (65536, [16384, 32768, 49152], True),
    (65536, [16000, 32000, 48000, 64000], True),
    (65536, list(range(8192, 65536, 8192)), True),
    (40000, [20000], True),
    (65539, nn._chunk_edges(65539)[1:-1], True),
    (16387, nn._chunk_edges(16387)[1:-1], True),
    (31252, [15626], False),
], ids=["4x16384", "16000s", "8x8192", "2x20000", "chunks-65539", "chunks-16387", "2x15626"])
def test_a_row_cut_of_a_one_column_output_layer_keeps_its_bits_at_multiples_of_4(n, cuts, same):
    # past the small-matrix cut-over too; but a piece of 2 mod 4 rows ends in
    # rows rounded as a tail, which the whole batch rounds otherwise
    rng = np.random.default_rng(9)
    h = np.tanh(rng.normal(size=(n, 64)))
    w = rng.normal(size=(64, 1))
    edges = [0, *cuts, n]
    assert all(lo % 4 == 0 for lo in edges[:-1]) == same
    pieces = np.concatenate([h[lo:hi] @ w for lo, hi in zip(edges, edges[1:])])
    assert np.array_equal(pieces, h @ w) == same


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

    runs = []
    hidden_rows = nn._hidden_rows

    def spy(plan, rows, out, lo, hi):
        runs.append((len(rows), lo, hi, threading.current_thread()))
        hidden_rows(plan, rows, out, lo, hi)

    monkeypatch.setattr(nn, "inference_pool", fail)
    monkeypatch.setattr(nn, "_hidden_rows", spy)
    n = 2 * nn.BLOCK_ROWS - 1
    for widths in NETS.values():
        m = net(widths)
        x = np.random.default_rng(1).normal(size=(n, widths[0]))
        np.testing.assert_array_equal(m.forward_raw(x), serial_forward(m, x))
    # one run of the chunk loop over all rows of each net, on the calling thread
    assert runs == [(n, 0, n, threading.current_thread())] * len(NETS)
    linear = Mlp([3, 2], seed=0)
    x = np.random.default_rng(0).normal(size=(3 * nn.BLOCK_ROWS, 3))
    np.testing.assert_array_equal(linear.forward_raw(x), serial_forward(linear, x))
    assert len(runs) == len(NETS)
