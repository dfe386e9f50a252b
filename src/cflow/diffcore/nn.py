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

``forward_raw``, the inference pass of every scorer and of
``FlowModel.velocity``, carries a contiguous run of rows through the hidden
layers block by block (``_hidden_rows``); one matmul over all rows then
applies the output layer. The hidden layers of a block, and of a
sampler's range below two blocks, go through one loop, ``_run_hidden``,
into arrays the caller owns: a run of blocks writes every block through
one buffer pair, and a sampler's range sets up its plan once
(``_layer_plan``) with each bias broadcast to its rows, since
``np.add(out, bias_rows, out=out)`` is the same IEEE add as ``out += b``
without numpy's row-at-a-time broadcast (35 -> 19 us per 1,024x64 block).
A run of blocks keeps the plain bias: tiling it in each run raised a
``generate`` benchmark run's peak RSS from 105.7 to 111.5 MiB. Below two
blocks of ``BLOCK_ROWS`` rows ``_hidden`` carries all rows as one block on
the calling thread. From two blocks up it cuts the rows into one
run of whole blocks per pool thread (the last run also takes the
remainder) and hands them out through ``run_shares``. numpy releases the
GIL inside matmul and ``tanh``, so the runs go in parallel. The result is
bit-identical to one run over all rows, because of two rules, measured
with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on one BLAS thread on an
AVX-512 Xeon:

* A hidden layer gives every row the same bits whichever row range it is
  computed in, as long as the range has more than one row: ranges cut at
  multiples of 4 (and at 2, 3 or 6) matched the whole batch exactly for
  3->64, 2->64 and 64->64 layers up to 12,289 rows. A one-row range goes
  through gemv instead: cut off from 1,025 rows, that row differed in 19
  to 24 of its 64 first-layer columns. So every block here holds at least
  ``BLOCK_ROWS`` rows (a short tail joins the block before it) and starts
  at a multiple of ``BLOCK_ROWS``.
* The output layer keeps its bits under a cut only while the whole
  batch's product stays in OpenBLAS's small-matrix kernel, which takes a
  product of at most ``SMALL_GEMM_MADDS`` (10^6) multiply-adds (rows x
  fan_in x fan_out); past it another dgemm kernel runs. A 64->2 layer
  kept its bits under multiple-of-4 cuts at 7,812 rows but not at 7,813
  (12,890 of 15,626 outputs changed), a 512->2 layer at 976 rows but not
  at 977, and cutting 12,288 rows into two halves changed 20,279 of the
  24,576 outputs of a 64->2 layer. So ``forward_raw`` applies it as one
  matmul over all rows.

A network without a hidden layer is that one matmul alone.

The second rule is what lets a sampler take a batch apart once instead
of at every step. Forward Euler moves every point on its own, so
``flow`` cuts a batch into row shares (``row_shares``) and carries each
share through every Euler step of every chain stage, one share per pool
thread; ``run_shares`` hands them to the pool once per call. Shares are
taken only where the bits cannot move: below ``2 * BLOCK_ROWS`` rows, so
a share's rows are one block, as ``forward_raw`` carries them in the
calling thread, and no pool job submits another; and where every net's
output layer over the whole batch is at or below ``SMALL_GEMM_MADDS``.
Each share has at least ``SHARE_ROWS`` rows and every cut falls on a
multiple of 4 rows. Past the rule a sampler keeps the batch as one range
on the calling thread, and from two blocks up its step loop runs the
hidden layers through ``_hidden`` at every step.

``inference_pool`` is the process's one worker pool. Besides row shares
and row blocks it runs ``flow.train``'s minibatch-OT solves ahead of the
training step. No job submits another, and no job waits on one, so the
pool cannot deadlock. Row shares and row blocks alike reach the pool only
through ``run_shares``: the caller runs the first one itself and, once it
is done, takes back every one the pool has not started, so none waits
behind solves already queued.
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
    "run_shares",
]

DEFAULT_HIDDEN = (64, 64, 64)
# rows per block of the threaded inference pass: a 64-wide float64 block is
# 512 KiB, so a block's activations stay in cache from layer to layer
BLOCK_ROWS = 1024
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


def _block_edges(lo: int, hi: int, parts: int) -> list[int]:
    """Row edges that cut ``lo:hi`` into ``parts`` (at least one) runs of
    whole blocks of ``BLOCK_ROWS`` rows from ``lo``; the last run also
    takes the remainder, so fewer rows than a block make one run."""
    blocks = (hi - lo) // BLOCK_ROWS
    parts = max(parts, 1)
    return [lo + BLOCK_ROWS * (blocks * k // parts) for k in range(parts)] + [hi]


def _buffers(layers, rows: int) -> list[np.ndarray]:
    """The (rows, fan_out) arrays the outputs of ``layers`` over ``rows``
    rows go to: views that take turns in two flat buffers, so a layer never
    writes the rows it reads."""
    size = rows * max((w.shape[1] for w, _ in layers), default=0)
    bufs = np.empty(size), np.empty(size)
    return [bufs[i % 2][: rows * w.shape[1]].reshape(rows, w.shape[1]) for i, (w, _) in enumerate(layers)]


def _layer_plan(layers, rows: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``layers`` set up once for ``rows`` rows: per layer its weights, its
    bias broadcast to the rows and its output array (``_buffers``)."""
    return [(w, np.repeat(b[None], rows, axis=0), out) for (w, b), out in zip(layers, _buffers(layers, rows))]


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


def _hidden_rows(layers, x: np.ndarray, hidden: np.ndarray, lo: int, hi: int) -> None:
    """Write the last hidden activation of rows ``lo:hi`` of ``x`` into the
    same rows of ``hidden``, one block at a time through one buffer pair."""
    edges = _block_edges(lo, hi, (hi - lo) // BLOCK_ROWS)
    # the last block is the largest
    inner = _buffers(layers[:-1], hi - edges[-2])
    for start, stop in zip(edges[:-1], edges[1:]):
        n = stop - start
        outs = [buf[:n] for buf in inner] + [hidden[start:stop]]
        _run_hidden(x[start:stop], [(w, b, out) for (w, b), out in zip(layers, outs)])


def _hidden(layers, x: np.ndarray) -> np.ndarray:
    """The last hidden activation of every row of ``x``: one run in the
    calling thread below two blocks, else one run of blocks per pool
    thread, handed out by ``run_shares``."""
    n = x.shape[0]
    hidden = np.empty((n, layers[-1][0].shape[1]))
    if n < 2 * BLOCK_ROWS:
        _hidden_rows(layers, x, hidden, 0, n)
        return hidden
    edges = _block_edges(0, n, min(inference_pool().threads, n // BLOCK_ROWS))
    run_shares(lambda lo, hi: _hidden_rows(layers, x, hidden, lo, hi), edges)
    return hidden


def row_shares(nets, n: int) -> list[int]:
    """Row edges that cut a batch of ``n`` rows into one share per pool
    thread for ``run_shares``, or ``[0, n]`` where that could move the bits
    of any network in ``nets``: from ``2 * BLOCK_ROWS`` rows, or where a
    net's output layer over all ``n`` rows is past ``SMALL_GEMM_MADDS``.
    Each share has at least ``SHARE_ROWS`` rows and starts at a multiple
    of 4 rows; the last one also takes the remainder."""
    parts = n // SHARE_ROWS
    if parts < 2 or n >= 2 * BLOCK_ROWS:
        return [0, n]
    if any(n * net.layers[-1][0].size > SMALL_GEMM_MADDS for net in nets):
        return [0, n]
    parts = min(parts, inference_pool().threads)
    quads = n // 4
    return [4 * (quads * k // parts) for k in range(parts)] + [n]


def run_shares(fn, edges: list[int]) -> list:
    """``fn(lo, hi)`` for every share between ``edges``, in row order.

    The pool starts every share but the first, which the caller runs; then
    the caller takes back each share the pool has not started and runs it
    itself. No share is still running when this returns or raises, and a
    share's error reaches the caller with its type.
    """
    executor = inference_pool().executor
    jobs = [(lo, hi, executor.submit(fn, lo, hi)) for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        results = [fn(edges[0], edges[1])]
        for lo, hi, job in jobs:
            results.append(fn(lo, hi) if job.cancel() else job.result())
        return results
    finally:
        # a cancelled share never runs, and ``wait`` would block on it until
        # a pool thread dequeued it; wait for the started ones only
        wait([job for *_, job in jobs if not job.cancel()])


def num_parameters(widths: list[int]) -> int:
    """Length of ``theta`` for a network of these layer widths."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    total = w.sum() if w is not None and normalized else None
    return Tensor(*_sq_error_parts(model, x, target, w, total))


def _sq_error_parts(model: "Mlp", x, target, w, total):
    """The value and backward function of ``row_sq_error_mean`` with
    float64 ``weights`` ``w``, given the weight sum of the normalized form
    as ``total`` (None for the plain mean and for the unnormalized form)."""
    out, cache = model.forward(x)
    residual = out - np.asarray(target, dtype=np.float64)
    errors = (residual * residual).sum(axis=1)
    n = errors.shape[0]
    if w is None:
        value = errors.mean()
        coef = np.full(n, 1.0 / n)
    elif total is None:
        value = (w * errors).mean()
        coef = w / n
    else:
        value = (w * errors).sum() / total
        coef = w / total
    return value, lambda: model.backward(cache, 2.0 * coef[:, None] * residual)


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

        The hidden layers run through ``_hidden``, on the inference pool
        from ``2 * BLOCK_ROWS`` rows up (see the module docstring); the
        input is never written.
        """
        h = self._checked_input(x)
        *hidden, (w, b) = self.layers
        if hidden:
            h = _hidden(hidden, h)
        out = h @ w
        out += b
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
