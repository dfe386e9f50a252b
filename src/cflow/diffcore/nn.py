"""Fully connected networks with an explicit forward and backward pass.

``Mlp`` is the single network class used everywhere: as a time-conditioned
velocity field (input ``d + 1``, output ``d``) and as a binary classifier
(input ``d``, output 1 logit). Hidden layers use tanh; the output layer is
linear. With ``widths == [in, out]`` the network is a single linear map,
which the integrator tests rely on.

All parameters live in one contiguous float64 vector ``theta``, laid out
as the checkpoint stores them: per layer, W (fan_in x fan_out, row-major)
then b. ``layers`` holds (W, b) views into it, and ``grad`` is a vector of
the same layout that ``backward`` fills.

A training step is one pass: a loss function (``row_sq_error_mean``,
``bce_with_logits``) runs ``forward``, computes the value and what its
gradient needs once, and returns a ``Tensor`` whose ``backward()`` calls
``backward``. Both write their activations and hidden gradients into
buffers the network keeps for its last batch size, so a step allocates no
activation arrays; ``backward`` takes only the cache of the last ``forward``.

``forward_raw``, the inference pass of every scorer, carries its rows
through every layer in chunks of ``CHUNK_ROWS`` rows (``_hidden_rows``).
It cuts them into runs of
whole blocks of ``BLOCK_ROWS`` rows, one per pool thread from two blocks
up (``_block_runs``); numpy releases the GIL inside matmul and ``tanh``,
so the runs go in parallel. Each run goes chunk by chunk through one plan
set up for it once on the calling thread (``_pass``, ``_layer_plan``): a
buffer pair its layers take turns in, and each bias broadcast to the
chunk's rows, since ``np.add(out, bias_rows, out=out)`` is the same IEEE
add as ``out += b`` without numpy's row-at-a-time broadcast (35 -> 19 us
per 1,024x64 block). Every chunk of a run but the last has ``CHUNK_ROWS``
rows, and the last also takes the remainder. The output layer goes
through the chunks too where its bits allow (``_head_in_chunks``, the
second and fourth rules below); elsewhere the chunks write the last
hidden activation and one matmul over the range applies the output
layer, one piece of ``row_pieces`` after another (the third rule). So a
classifier's scoring holds a few chunks' activations at any size, and a
wider head's at most one piece's (under 16,384 rows for a 64->2 head). The
hidden layers of a chunk, and of a sampler's share, go through one loop,
``_run_hidden``. The result is bit-identical to one run over all rows,
because of four rules, measured with numpy 2.4.6 and its bundled
OpenBLAS 0.3.31 on one BLAS thread on an AVX-512 Xeon:

* A hidden layer gives every row the same bits whichever row range it is
  computed in, as long as the range has more than one row: ranges cut at
  multiples of 4 (and at 2, 3 or 6) matched the whole batch exactly for
  3->64, 2->64 and 64->64 layers up to 12,289 rows. A one-row range goes
  through gemv instead: cut off from 1,025 rows, that row differed in 19
  to 24 of its 64 first-layer columns. So every run and chunk here starts
  at a multiple of 4, and a short tail joins the chunk before it.
* The output layer keeps its bits under a cut only while the whole
  batch's product stays in OpenBLAS's small-matrix kernel, which takes a
  product of at most ``SMALL_GEMM_MADDS`` (10^6) multiply-adds (rows x
  fan_in x fan_out); past it another dgemm kernel runs. A 64->2 layer
  kept its bits under multiple-of-4 cuts at 7,812 rows but not at 7,813
  (12,890 of 15,626 outputs changed), a 512->2 layer at 976 rows but not
  at 977, and cutting 12,288 rows into two halves changed 20,279 of the
  24,576 outputs of a 64->2 layer. So past it the output layer is one
  matmul over the range.
* Past the cut-over, a cut keeps the output layer's bits while every
  piece stays past it: a 64->2 layer at 16,384 rows as 8,192 + 8,192 or
  7,816 + 8,568, 16,000 as 2 x 8,000, 20,000 as 2 x 10,000, 65,536 as 8 x
  8,192; but 16,384 rows as 4 x 4,096 changed 26,995 outputs.
* A one-column output layer, such as a classifier's 64->1 logit head,
  keeps its bits under cuts at multiples of 4 at any size, past the
  cut-over too: numpy runs it through gemv, which rounds each row alone
  but the last ``B mod 4`` rows of a B-row range its own way. 65,536 rows
  cut into pieces of 16,384, 16,000 or 8,192 rows, 40,000 rows cut in two
  halves, and 16,387 or 65,539 rows cut into 256-row chunks changed no
  output (fan-in 1 to 512); 31,252 rows cut into two halves of 15,626
  rows, which is 2 mod 4, changed 1 to 4 outputs. (With two BLAS threads
  OpenBLAS cuts the rows itself, and multiple-of-4 chunks changed some.)

A network without a hidden layer is that one matmul alone.

The second rule is what lets a sampler take a batch apart once instead
of at every step. Forward Euler moves every point on its own, so
``flow`` cuts a batch into row shares (``row_shares``) and carries each
share through every Euler step of every chain stage, one share per pool
thread; ``run_shares`` hands them to the pool once per call. Shares are
taken only where the bits cannot move: below ``2 * BLOCK_ROWS`` rows,
where a share's step loop hands nothing to the pool, so no pool job
submits another; and where every net's output layer over the whole batch
is at or below ``SMALL_GEMM_MADDS``. Each share has at least
``SHARE_ROWS`` rows, every cut falls on a multiple of 4 rows, and a share
goes through its layers whole, with no chunk. Past the rule a sampler
carries the batch on the calling thread in ``row_pieces``, one after
another (the third rule; each the fewest whole blocks, at least two, past
the cut-over for every net). From two blocks up its step loop runs the
chunk loop of ``forward_raw`` over one run per pool thread, cut evenly at
multiples of 4, with every run's plan set up once per stage (``_pass``).

The kernel-product rule is ``metrics._kernel_sum``'s: a range of 2+ rows
cut at multiples of 4 of ``a @ b.T`` (2-column points, m rows in b) keeps
its bits where ``m % 8 < 4`` or ``m < 196`` (m = 1..299, 996..1,004, 2,047,
2,048, 4,092, 4,096 at 5 to 2,049 rows); each other m tried changed bits
from 64 rows up (m = 204 at 64, 257, 1,000 and 2,049 rows).

``inference_pool`` is the process's one worker pool. Besides row shares
and row blocks it runs ``metrics.mmd2``'s kernel-sum runs, each building
and summing its leaves of the kernel matrix, and ``flow.train``'s
minibatch-OT solves ahead of the training step. No job submits another,
and no job waits on one, so the pool cannot deadlock. ``_block_runs`` is
the one place that decides whether the pool runs ``forward_raw``'s runs
and kernel-sum runs (``run_blocks``): below two pieces of its unit it
keeps all rows on the calling thread and never looks the pool up; from
two up it makes one run of whole pieces per pool thread. ``row_shares``
and ``row_pieces`` decide for a sampler (above). All cut rows by
``_cuts``, the one row-edge formula, and the runs reach the pool only
through ``run_shares``: one run stays on the calling thread; of more, the
caller runs the first one itself and, once it is done, takes back every
one the pool has not started, so none waits behind solves already queued.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import NamedTuple

import numpy as np

from .tensor import AutodiffError, ShapeError, Tensor, _check_finite

__all__ = [
    "Mlp",
    "velocity_mlp",
    "bce_with_logits",
    "row_sq_error_mean",
    "sigmoid",
    "num_parameters",
    "inference_threads",
    "inference_pool",
    "row_shares",
    "row_pieces",
    "run_blocks",
    "run_shares",
]

DEFAULT_HIDDEN = (64, 64, 64)
# rows per block of the threaded inference pass: its runs are whole blocks
BLOCK_ROWS = 1024
# rows per chunk that a run carries through every layer: a 64-wide float64
# chunk is 128 KiB, so a chunk's activations stay in cache from layer to layer
CHUNK_ROWS = 256
# the inference pool never starts more threads than this, however many CPUs
MAX_INFERENCE_THREADS = 4
# fewest rows of a share of a batch that a sampler carries through its chain
SHARE_ROWS = 128
# the largest product (multiply-adds) OpenBLAS runs in its small-matrix kernel
SMALL_GEMM_MADDS = 10**6


def inference_threads() -> int:
    """Threads of the inference pool: the CPUs this process may run on,
    at most ``MAX_INFERENCE_THREADS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_INFERENCE_THREADS)


class _Pool(NamedTuple):
    executor: ThreadPoolExecutor
    threads: int


_pool: _Pool | None = None
_pool_lock = threading.Lock()


def inference_pool() -> _Pool:
    """The process's worker pool (``executor``, ``threads``), started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            threads = inference_threads()
            _pool = _Pool(ThreadPoolExecutor(threads, thread_name_prefix="cflow-pool"), threads)
        return _pool


def _forget_pool_in_child() -> None:
    # a forked child has none of its parent's threads, and the lock may have
    # been held at the fork; the child starts its own pool on first use
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _cuts(n: int, parts: int, unit: int) -> list[int]:
    """Row edges that cut ``n`` rows into ``parts`` (at least one) runs of
    whole pieces of ``unit`` rows; the last run also takes the remainder."""
    units = n // unit
    return [unit * (units * k // parts) for k in range(parts)] + [n]


def _layer_plan(layers, rows: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``layers`` set up once for ``rows`` rows: per layer its weights, its
    bias broadcast to the rows and its output array, views that take turns
    in two flat buffers, so a layer never writes the rows it reads."""
    size = rows * max(w.shape[1] for w, _ in layers)
    bufs = np.empty(size), np.empty(size)
    return [(w, np.repeat(b[None], rows, axis=0), bufs[i % 2][: rows * w.shape[1]].reshape(rows, w.shape[1]))
            for i, (w, b) in enumerate(layers)]


def _run_hidden(h: np.ndarray, plan) -> np.ndarray:
    """The rows ``h`` carried through the hidden layers of ``plan``, given
    as (weights, bias, output array) per layer, as tanh(h @ w + b). Returns
    the last layer's output."""
    for w, bias, out in plan:
        np.matmul(h, w, out=out)
        # with a bias broadcast ahead of time, the same IEEE adds as
        # ``out += b`` without numpy's row-at-a-time broadcast
        np.add(out, bias, out=out)
        np.tanh(out, out=out)
        h = out
    return h


def _chunk_edges(rows: int) -> list[int]:
    """Row edges of the chunks of a run of ``rows`` rows: ``CHUNK_ROWS``
    each, the last one also taking the remainder."""
    return _cuts(rows, max(rows // CHUNK_ROWS, 1), CHUNK_ROWS)


class _Plan(NamedTuple):
    layers: list  # ``_layer_plan`` of the run's largest chunk
    head: bool  # whether the last layer is the linear output layer


def _hidden_rows(plan: _Plan, x: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    """Write the rows ``lo:hi`` of ``x``, carried through ``plan`` one chunk
    at a time, into the same rows of ``out``: tanh after every layer but an
    output layer. Each chunk's last layer writes ``out`` directly."""
    edges = _chunk_edges(hi - lo)
    # every chunk but the last has CHUNK_ROWS rows
    body = [(w, bias[:CHUNK_ROWS], buf[:CHUNK_ROWS]) for w, bias, buf in plan.layers]
    for start, stop in zip(edges[:-1], edges[1:]):
        rows = slice(lo + start, lo + stop)
        *hidden, (w, bias, _) = body if stop < edges[-1] else plan.layers
        dest = out[rows]
        np.matmul(_run_hidden(x[rows], hidden), w, out=dest)
        np.add(dest, bias, out=dest)
        if not plan.head:
            np.tanh(dest, out=dest)


def _head_in_chunks(w: np.ndarray, n: int) -> bool:
    """Whether an output layer of weights ``w`` keeps its bits over ``n``
    rows cut into chunks (the second and fourth rules of the module docstring)."""
    return w.shape[1] == 1 or n * w.size <= SMALL_GEMM_MADDS


def _pass(layers, x: np.ndarray, runs: list[int], out: np.ndarray):
    """A function that writes ``layers`` applied to the rows of ``x`` into
    ``out``, one run between ``runs`` per ``run_shares`` share, chunk by
    chunk (``_hidden_rows``); the output layer goes through the chunks
    where ``_head_in_chunks``, else it is one matmul over all rows. Each
    run's plan is made here, once, for its largest chunk; ``x`` is read at
    each call."""
    *hidden, (w, b) = layers
    head = _head_in_chunks(w, len(x))
    chunk_out = out if head else np.empty((len(x), w.shape[0]))
    plans = {}
    for lo, hi in zip(runs[:-1], runs[1:]):
        edges = _chunk_edges(hi - lo)
        plans[lo] = _Plan(_layer_plan(layers if head else hidden, edges[-1] - edges[-2]), head)

    def run() -> None:
        run_shares(lambda lo, hi: _hidden_rows(plans[lo], x, chunk_out, lo, hi), runs)
        if not head:
            np.matmul(chunk_out, w, out=out)
            np.add(out, b, out=out)

    return run


def row_shares(nets, n: int) -> list[int]:
    """Row edges that cut a batch of ``n`` rows into one share per pool
    thread for ``run_shares`` where the bits of ``nets`` cannot move
    (module docstring), else ``[0, n]``; the last share takes the remainder."""
    parts = n // SHARE_ROWS
    fits = all(n * net.layers[-1][0].size <= SMALL_GEMM_MADDS for net in nets)
    if parts < 2 or n >= 2 * BLOCK_ROWS or not fits:
        return [0, n]
    return _cuts(n, min(parts, inference_pool().threads), 4)


def row_pieces(nets, n: int) -> list[int]:
    """Row edges that cut a batch of ``n`` rows into the pieces a sampler
    carries one after another past the output-layer rule of ``nets``
    (module docstring), else ``[0, n]``; the last piece takes the remainder."""
    blocks = SMALL_GEMM_MADDS // (BLOCK_ROWS * min(net.layers[-1][0].size for net in nets)) + 1
    piece = BLOCK_ROWS * max(blocks, 2)
    return _cuts(n, max(n // piece, 1), piece)


def _block_runs(n: int, unit: int) -> list[int]:
    """Row edges of the runs ``run_blocks`` makes of ``n`` rows: ``[0, n]``
    below two pieces of ``unit`` rows, without looking the pool up, else one
    run of whole pieces per pool thread (at most one per piece)."""
    units = n // unit
    return [0, n] if units < 2 else _cuts(n, min(inference_pool().threads, units), unit)


def run_blocks(fn, n: int, unit: int) -> None:
    """``fn(lo, hi)`` over the runs of ``_block_runs(n, unit)``."""
    run_shares(fn, _block_runs(n, unit))


def run_shares(fn, edges: list[int]) -> list:
    """``fn(lo, hi)`` for every share between ``edges``, in row order.

    One share runs on the calling thread without looking the pool up. Of
    more, the pool starts every share but the first, which the caller runs;
    then the caller takes back each share the pool has not started and runs
    it itself. No share is still running when this returns or raises, and a
    share's error reaches the caller with its type.
    """
    if len(edges) == 2:
        return [fn(*edges)]
    executor = inference_pool().executor
    jobs = [(lo, hi, executor.submit(fn, lo, hi)) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        results = [fn(edges[0], edges[1])]
        for lo, hi, job in jobs:
            results.append(fn(lo, hi) if job.cancel() else job.result())
        return results
    finally:
        _cancel_and_wait(job for *_, job in jobs)


def _cancel_and_wait(jobs) -> None:
    """Cancel the pool ``jobs`` not yet started and wait for the others, for
    ``run_shares`` and ``flow``'s OT window alike: a cancelled job never
    runs, and ``wait`` would block on it until a pool thread dequeued it."""
    wait([job for job in jobs if not job.cancel()])


def num_parameters(widths: list[int]) -> int:
    """Length of ``theta`` for a network of these layer widths."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: with e = exp(-|z|), 1 / (1 + e)
    where z >= 0 and e / (1 + e) elsewhere, so ``exp`` never overflows."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


def row_sq_error_mean(
    model: "Mlp",
    x: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray | None = None,
    normalized: bool = True,
) -> Tensor:
    """Mean of per-row squared L2 errors ||model(x)_i - target_i||^2.

    With ``weights`` the rows are combined as sum(w * e) / sum(w) when
    ``normalized`` (the batch form used in training) or mean(w * e)
    otherwise; ``backward()`` hands 2 * coef * residual to ``model.backward``.
    """
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    out, cache = model.forward(x)
    residual = out - np.asarray(target, dtype=np.float64)
    errors = (residual * residual).sum(axis=1)
    n = errors.shape[0]
    if w is None:
        value = errors.mean()
        coef = np.full(n, 1.0 / n)
    elif normalized:
        total = w.sum()
        value = (w * errors).sum() / total
        coef = w / total
    else:
        value = (w * errors).mean()
        coef = w / n
    return Tensor(value, lambda: model.backward(cache, 2.0 * coef[:, None] * residual))


def bce_with_logits(model: "Mlp", x: np.ndarray, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of the logits ``model(x)``, numerically stable.

    The value is mean(softplus(z) - y*z); ``backward()`` hands the closed
    form (sigmoid(z) - y) / n to ``model.backward``.
    """
    z, cache = model.forward(x)
    y = np.asarray(targets, dtype=np.float64).reshape(z.shape)
    softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    return Tensor((softplus - y * z).mean(),
                  lambda: model.backward(cache, (sigmoid(z) - y) / z.size))


class Mlp:
    """Multi-layer perceptron with tanh hidden activations, linear output.

    Without ``theta``, weights are Glorot-normal initialized from a seeded
    generator so construction is bit-reproducible, and biases start at
    zero. With ``theta`` (length ``num_parameters(widths)``) the network
    takes a copy of those parameters and draws nothing.
    """

    def __init__(self, widths: list[int] | tuple[int, ...], seed: int = 0, theta=None):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"widths must list >= 2 positive sizes, got {widths}")
        self.widths = widths
        size = num_parameters(widths)
        self.theta = np.empty(size) if theta is None else np.array(theta, dtype=np.float64)
        if self.theta.shape != (size,):
            raise ShapeError(f"theta shape {self.theta.shape} does not fit widths {widths}")
        self.grad = np.zeros(size)
        self.grad_fresh = False  # set by backward(), consumed by an optimizer step
        self.layers = _layer_views(self.theta, widths)
        self._grad_layers = _layer_views(self.grad, widths)
        self._work = None  # (rows, layer outputs, input gradients) of the training pass
        self._live_cache = None  # the last forward's cache until its backward
        if theta is None:
            rng = np.random.default_rng(seed)
            for w, b in self.layers:
                fan_in, fan_out = w.shape
                w[...] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=w.shape)
                b[...] = 0.0

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def _checked_input(self, x) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.in_dim:
            raise ShapeError(f"expected input (n, {self.in_dim}), got {h.shape}")
        return h

    def forward(self, x) -> tuple[np.ndarray, list[np.ndarray]]:
        """Training forward pass on (n, in_dim) inputs.

        Returns the output and the cache ``backward`` needs: the input of
        every layer. Each layer's affine output is checked for NaN/Inf. Both
        live in the network's buffers until its next ``forward``.
        """
        h = self._checked_input(x)
        if self._work is None or self._work[0] != h.shape[0]:
            self._work = (h.shape[0], [np.empty((h.shape[0], n)) for n in self.widths[1:]],
                          [np.empty((h.shape[0], n)) for n in self.widths[1:-1]])
        outs = self._work[1]
        self._live_cache = cache = []
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            cache.append(h)
            h = np.matmul(h, w, out=outs[i])
            h += b
            _check_finite(h, "affine")
            if i != last:
                np.tanh(h, out=h)
        return h, cache

    def backward(self, cache: list[np.ndarray], dout: np.ndarray) -> None:
        """Write d(loss)/d(theta) into ``grad`` given d(loss)/d(output).

        ``cache`` must come from the last ``forward``; its activations are
        overwritten. Overwrites ``grad`` and marks it fresh for the next
        optimizer step; the gradient with respect to the network input is
        never formed.
        """
        if cache is not self._live_cache:
            raise AutodiffError("backward() needs the cache of the network's last forward pass")
        self._live_cache = None
        grads = self._work[2]
        g = dout
        for i in range(len(self.layers) - 1, -1, -1):
            h = cache[i]
            gw, gb = self._grad_layers[i]
            np.matmul(h.T, g, out=gw)
            np.add.reduce(g, axis=0, out=gb)
            if i:
                # the last read of this activation: 1 - h * h takes its place
                dtanh = np.multiply(h, h, out=h)
                np.subtract(1.0, dtanh, out=dtanh)
                g = np.matmul(g, self.layers[i][0].T, out=grads[i - 1])
                g *= dtanh
        _check_finite(self.grad, "gradient")
        self.grad_fresh = True

    def forward_raw(self, x: np.ndarray) -> np.ndarray:
        """Inference forward pass: same op order as ``forward``, no cache.

        The rows go through every layer in chunks (``_pass``), in runs of
        whole blocks (``_block_runs``) that go to the inference pool from
        ``2 * BLOCK_ROWS`` rows up; past the output-layer rule, one piece of
        ``row_pieces`` after another (see the module docstring). The input
        is never written.
        """
        h = self._checked_input(x)
        *hidden, (w, b) = self.layers
        if not hidden:
            out = h @ w
            out += b
            return out
        n = h.shape[0]
        out = np.empty((n, w.shape[1]))
        edges = [0, n] if _head_in_chunks(w, n) else row_pieces([self], n)
        for lo, hi in zip(edges[:-1], edges[1:]):
            _pass(self.layers, h[lo:hi], _block_runs(hi - lo, BLOCK_ROWS), out[lo:hi])()
        return out

    def copy(self) -> "Mlp":
        return Mlp(self.widths, theta=self.theta)


def _layer_views(flat: np.ndarray, widths: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    views = []
    offset = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        views.append((w, flat[offset : offset + fan_out]))
        offset += fan_out
    return views


def velocity_mlp(d: int = 2, hidden: tuple[int, ...] = DEFAULT_HIDDEN, seed: int = 0) -> Mlp:
    """Time-conditioned velocity field: input (x, t), output a d-vector."""
    return Mlp([d + 1, *hidden, d], seed=seed)
