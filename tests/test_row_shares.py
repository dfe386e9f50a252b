"""Row-share sampling: ``push``, ``sample`` and ``trajectory`` cut a batch
once into one share per pool thread and carry each share through the whole
chain; past the output-layer rule a large batch goes through the chain in
``row_pieces``, one after another. They equal a serial reference bit for
bit at every row count, pool size and field width; shares are taken only
where ``row_shares`` allows, and pieces hold one piece's activations; a
share's error reaches the caller with its type and no share outlives the
call; and a call finishes even when every pool thread is busy, whether it
takes shares or hands a large batch's block runs, or an MMD's kernel-sum
runs, to the pool."""

import threading
import tracemalloc

import numpy as np
import pytest
from conftest import kernel_sum_reference, mmd2_from_sums, use_pool

from cflow import flow, metrics
from cflow.datasets import GaussianSampler
from cflow.diffcore import Mlp, nn
from cflow.energy import BinaryClassifier, ClassifierEnergy

# 15,624 rows are one range: its halves would fall under the small-matrix
# cut-over of a 64->2 head; 16,384 and 20,000 rows are two pieces of it
ROWS = [1, 2, 127, 255, 256, 257, 511, 1000, 2047, 2048, 12288, 15624, 16384, 20000]
# "64-32-8": widths that change from layer to layer, through reused buffers;
# "linear": fields with no hidden layer
HIDDEN = {"64x3": (64, 64, 64), "8": (8,), "512": (512,), "64-32-8": (64, 32, 8), "linear": ()}


@pytest.fixture(params=[1, 2, 4], ids=["pool-1", "pool-2", "pool-4"])
def pool_threads(request, monkeypatch):
    executor = use_pool(monkeypatch, request.param)
    yield request.param
    executor.shutdown()


def net(widths, seed):
    """A network with Glorot weights and non-zero biases."""
    m = Mlp(widths, seed=seed)
    rng = np.random.default_rng(seed)
    for _, b in m.layers:
        b[...] = rng.normal(0.0, 0.1, b.shape)
    return m


def chain(hidden):
    root = flow.FlowModel(net([3, *hidden, 2], seed=1), n_steps=3)
    return flow.FlowModel(net([3, *hidden, 2], seed=2), parent=root, n_steps=4)


def serial_field(field):
    """The field on the calling thread, one loop over all rows."""

    def velocity(t, y):
        h = np.column_stack([y, np.full(len(y), t)])
        for i, (w, b) in enumerate(field.layers):
            h = h @ w
            h += b
            if i != len(field.layers) - 1:
                np.tanh(h, out=h)
        return h

    return velocity


def serial_push(model, x):
    for stage in model.chain:
        x = flow.integrate(serial_field(stage.field), x, stage.n_steps)
    return x


def expected_shares(model, n, threads):
    """How many shares the rule allows: below two blocks, with every output
    layer within the small-matrix cut-over, one per thread of >= 128 rows."""
    fits = all(n * s.field.layers[-1][0].size <= nn.SMALL_GEMM_MADDS for s in model.chain)
    if n >= 2 * nn.BLOCK_ROWS or not fits:
        return 1
    return max(1, min(threads, n // nn.SHARE_ROWS))


@pytest.fixture
def shares_seen(monkeypatch):
    """The edges of every call of ``run_shares`` that flow makes."""
    seen = []
    run_shares = flow.run_shares

    def spy(fn, edges):
        seen.append(list(edges))
        return run_shares(fn, edges)

    monkeypatch.setattr(flow, "run_shares", spy)
    return seen


@pytest.mark.parametrize("hidden", HIDDEN.values(), ids=HIDDEN.keys())
@pytest.mark.parametrize("n", ROWS)
def test_push_sample_and_trajectory_are_the_serial_loop_bit_for_bit(pool_threads, shares_seen, hidden, n):
    model = chain(hidden)
    x = GaussianSampler(n, dim=2).sample(n)
    x_before = x.copy()
    want = serial_push(model, x)
    np.testing.assert_array_equal(model.push(x), want)
    np.testing.assert_array_equal(model.sample(n, seed=n), want)
    np.testing.assert_array_equal(x, x_before)

    snaps = flow.trajectory(model, x, model.n_steps, model.n_steps + 1)
    states = [x]
    flow.integrate(serial_field(model.field), x, model.n_steps, on_step=lambda k, y: states.append(y))
    assert [t for t, _ in snaps] == [k / model.n_steps for k in range(model.n_steps + 1)]
    for (_, got), state in zip(snaps, states, strict=True):
        np.testing.assert_array_equal(got, state)

    parts = expected_shares(model, n, pool_threads)
    if parts == 1:
        assert shares_seen == []
    else:
        # push, sample, and trajectory (which sees this model's stage only)
        assert len(shares_seen) == 3
        for edges in shares_seen:
            assert len(edges) == parts + 1 and edges[0] == 0 and edges[-1] == n
            assert all(lo % 4 == 0 for lo in edges[:-1])
            assert all(hi - lo >= nn.SHARE_ROWS for lo, hi in zip(edges, edges[1:]))


def test_a_wide_output_layer_takes_no_shares(monkeypatch):
    # 1,000 x 512 x 2 multiply-adds are past the small-matrix cut-over
    executor = use_pool(monkeypatch, 2)
    model = chain(HIDDEN["512"])
    assert nn.row_shares([s.field for s in model.chain], 1000) == [0, 1000]
    assert nn.row_shares([s.field for s in model.chain], 976) == [0, 488, 976]
    np.testing.assert_array_equal(model.sample(1000, seed=5), serial_push(model, GaussianSampler(5).sample(1000)))
    assert executor.jobs == []
    executor.shutdown()


@pytest.mark.parametrize("n", [12288, 15624, 16384, 20000, 65536])
def test_a_large_draw_runs_in_pieces_past_the_output_layer_rule(monkeypatch, n):
    executor = use_pool(monkeypatch, 2)
    seen = []
    share_steps = flow._share_steps

    def spy(stages, x0, keep):
        assert threading.current_thread() is threading.main_thread()
        seen.append(len(x0))
        return share_steps(stages, x0, keep)

    monkeypatch.setattr(flow, "_share_steps", spy)
    model = chain(HIDDEN["64x3"])
    model.sample(n, seed=8)
    executor.shutdown()
    edges = np.cumsum([0, *seen])
    assert edges[-1] == n
    assert all(lo % nn.BLOCK_ROWS == 0 for lo in edges[:-1])
    # every piece is past the cut-over, so its output layer has the whole batch's bits
    assert all(rows * model.field.layers[-1][0].size > nn.SMALL_GEMM_MADDS for rows in seen)
    # 8,192 rows, the fewest whole blocks past the cut-over; the last piece takes the rest
    assert seen == ([n] if n < 2 * 8192 else [8192] * (n // 8192 - 1) + [n - 8192 * (n // 8192 - 1)])
    assert nn.row_pieces([s.field for s in model.chain], n) == [0, *edges[1:-1], n]


@pytest.mark.parametrize("cuts, same", [([8192], True), ([7816], True), ([4096, 8192, 12288], False)],
                         ids=["two-pieces", "uneven-pieces", "pieces-under-the-cut-over"])
def test_a_row_cut_of_an_output_layer_keeps_its_bits_only_past_the_cut_over(cuts, same):
    rng = np.random.default_rng(9)
    h = np.tanh(rng.normal(size=(16384, 64)))
    w = rng.normal(size=(64, 2))
    edges = [0, *cuts, len(h)]
    pieces = np.concatenate([h[lo:hi] @ w for lo, hi in zip(edges, edges[1:])])
    assert np.array_equal(pieces, h @ w) == same


def test_a_large_draw_holds_one_piece_of_activations(monkeypatch):
    executor = use_pool(monkeypatch, 2)
    model = flow.FlowModel(net([3, 64, 64, 64, 2], seed=3), n_steps=2)
    sampler = flow.ModelSampler(model, seed=10)
    tracemalloc.start()
    try:
        sampler.sample(65536)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        executor.shutdown()
    # one 65,536 x 64 float64 activation alone is 32 MiB; an 8,192-row piece's is 4 MiB
    assert peak < 12 * 2**20


def test_a_classifier_scoring_holds_no_activation_of_all_its_rows(monkeypatch):
    executor = use_pool(monkeypatch, 2)
    energy = ClassifierEnergy(BinaryClassifier(net([2, 64, 64, 64, 1], seed=4)), lam=5.0)
    x = GaussianSampler(11).sample(65536)
    tracemalloc.start()
    try:
        energy.weight(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        executor.shutdown()
    # one 65,536 x 64 float64 activation alone is 32 MiB; a run's chunk plan
    # is under 1 MiB, and the weight's own n-row arrays 0.5 MiB each
    assert peak < 6 * 2**20


def test_small_batches_start_no_pool(monkeypatch):
    def fail(*args):
        raise AssertionError("the pool ran")

    monkeypatch.setattr(nn, "inference_pool", fail)
    model = chain(HIDDEN["64x3"])
    assert nn.row_shares([model.field], 2 * nn.SHARE_ROWS - 1) == [0, 2 * nn.SHARE_ROWS - 1]
    model.sample(2 * nn.SHARE_ROWS - 1, seed=1)


def test_the_caller_runs_the_first_share_and_the_pool_the_others(monkeypatch):
    executor = use_pool(monkeypatch, 2)
    threads = []
    share_steps = flow._share_steps

    def spy(stages, x0, keep):
        threads.append(threading.current_thread())
        return share_steps(stages, x0, keep)

    monkeypatch.setattr(flow, "_share_steps", spy)
    model = chain(HIDDEN["8"])
    model.sample(1000, seed=2)
    executor.shutdown()
    # one call per share, each through every step of the chain
    assert len(threads) == 2
    assert threads.count(threading.current_thread()) >= 1
    assert len(executor.jobs) == 1


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_a_share_error_reaches_the_caller_and_no_share_outlives_the_call(monkeypatch, where):
    executor = use_pool(monkeypatch, 2)
    caller = threading.current_thread()
    share_steps = flow._share_steps
    pool_started = threading.Event()

    def fail_in_one_share(stages, x0, keep):
        on_caller = threading.current_thread() is caller
        if not on_caller:
            pool_started.set()
        elif where == "caller":
            # let the pool's share start, so the caller has to wait for it
            pool_started.wait(timeout=30)
        if on_caller == (where == "caller"):
            raise KeyError("share failed")
        return share_steps(stages, x0, keep)

    monkeypatch.setattr(flow, "_share_steps", fail_in_one_share)
    model = chain(HIDDEN["8"])
    with pytest.raises(KeyError, match="share failed"):
        model.sample(1000, seed=3)
    assert executor.jobs and all(job.done() for job in executor.jobs)
    # the pool survives a failed call
    monkeypatch.setattr(flow, "_share_steps", share_steps)
    np.testing.assert_array_equal(model.sample(1000, seed=3), serial_push(model, GaussianSampler(3).sample(1000)))
    executor.shutdown()


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_a_call_finishes_with_every_pool_thread_held(monkeypatch, threads):
    executor = use_pool(monkeypatch, threads)
    release = threading.Event()
    held = [executor.submit(release.wait, 60) for _ in range(threads)]
    model = chain(HIDDEN["64x3"])
    x = GaussianSampler(4).sample(1000)
    # 4,096 rows are one range whose hidden layers go to the pool in block runs
    big = GaussianSampler(6).sample(4096)
    big_rows = np.column_stack([big, np.full(len(big), 0.25)])
    # a 1,000-point MMD, whose kernel sums hand their row blocks to the pool
    real = GaussianSampler(7).sample(1000)
    out = {}

    def call():
        out["push"] = model.push(x)
        out["snaps"] = flow.trajectory(model, x, model.n_steps, 2)
        out["big_push"] = model.push(big)
        out["big_snaps"] = flow.trajectory(model, big, model.n_steps, 2)
        out["big_forward"] = model.field.forward_raw(big_rows)
        out["mmd"] = metrics.mmd2(x, real)

    caller = threading.Thread(target=call)
    try:
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a call waited for a held pool"
    finally:
        release.set()
        caller.join(timeout=60)
        executor.shutdown()
    assert all(job.result() for job in held)
    np.testing.assert_array_equal(out["push"], serial_push(model, x))
    np.testing.assert_array_equal(out["snaps"][-1][1],
                                  flow.integrate(serial_field(model.field), x, model.n_steps))
    np.testing.assert_array_equal(out["big_push"], serial_push(model, big))
    np.testing.assert_array_equal(out["big_snaps"][-1][1],
                                  flow.integrate(serial_field(model.field), big, model.n_steps))
    np.testing.assert_array_equal(out["big_forward"], serial_field(model.field)(0.25, big))
    assert out["mmd"] == mmd2_from_sums(kernel_sum_reference(x, x), kernel_sum_reference(real, real),
                                        kernel_sum_reference(x, real), len(x), len(real))
    # every share or block run the pool had not started was taken back, not left queued
    assert all(job.cancelled() for job in executor.jobs if job not in held)
