"""Monte Carlo dropout inference: repeated stochastic forward passes and
per-sample summary statistics.

Trial j draws its dropout masks from a stream labeled "mcd/{j}" under
the run's master seed, so any trial can be replayed in isolation: one
mask per layer per trial, shared across all samples. The rows run in
blocks, outermost, with the T trials inside each block. Each trial's
stream is built once per call; the first block draws from it, and every
later block replays those draws, so all blocks see the masks a new
stream with that label would give, regardless of inference batching.
With batch_size 0 the blocks start at multiples of BLOCK_ROWS and hold
BLOCK_ROWS rows, and a remainder of BLOCK_ROWS // 2 rows or more is a
block of its own, while a shorter one joins the last block: on the BLAS
this was built against, such blocks reproduce the whole-batch pass bit
for bit, while a shorter tail block or an unaligned start does not.
Trial j's stream does not depend on T either, so the first t trials of a
run at T >= t are the trials of the run at T = t: one call with at=
answers several trial counts from one block loop, and sweep-trials pays
for max(grid) trials per rep, not for the sum of its grid. The part of a
pass no dropout acts on (Network.shared_part: a DCNv2's cross branch) is
computed once per block for its T passes to read.

A block's passes run on the CPUs of the process's affinity mask, at
most MAX_WORKERS of them: the calling thread and one helper thread per
further CPU (at most T - 1) each take the lowest trial not yet taken. A
block whose passes are short (under THREADED_MACS multiply-adds each)
runs on the calling thread alone. Trial j writes only column j of the
block and replays only its own draws, and the block's moments are taken
once all of its passes are done, so the worker count changes no output
bit and no error. With one CPU no thread starts. The BLAS is best
pinned to one thread, or the workers' BLAS threads oversubscribe the
CPUs.

The result holds, as columns, the mean and sample standard deviation of
each sample's trial vector in the model's output space. For log-MSE
models that is log1p space; conversion to raw amounts happens at the
metrics boundary. ZILN heads are reduced to their expected raw amount
per trial. Both are row-wise reductions, so each block's moments are
taken as soon as its T passes are done, for every requested trial
count: a call holds one block x T trial values, and the (n, T) trial
matrix exists only when it is kept (keep_trials), with the same bits
either way. A mean or std that is not finite is an error naming its
sample.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import losses
from .numcore import NumericError, RngStream, ShapeError

# Rows per inference block when batch_size is 0. A remainder of fewer than
# BLOCK_ROWS // 2 rows joins the last block, so no block is shorter than
# that (unless all rows are): that, not speed, is what keeps the bits of
# the whole-batch pass.
BLOCK_ROWS = 1024

# The most threads a block's passes run on: the count whose speed and peak
# RSS were measured (a 2-CPU host). Each thread holds one pass's
# activations, so a larger affinity mask runs no more until measured.
MAX_WORKERS = 2

# Multiply-adds of one pass (block rows x the network's weights) below which
# a block's passes run on the calling thread alone. A short pass is mostly
# GIL-bound Python between small numpy calls, so a second thread gains
# little or loses. On that host, with the BLAS on one thread, two threads
# were slower than one up to 1.5M per pass, gained nothing that held up at
# about 3M (an MLP [128, 64, 32] on 256 rows; a DCNv2 with deep [64, 32] on
# 1000, whose sweep_dcnv2 benchmark runs were no faster), and cut 29% and
# 43% of a block's time at 5.9M and 11.8M (that MLP on 512 and 1024 rows).
THREADED_MACS = 4_000_000


@dataclass
class McdConfig:
    trials: int
    master_seed: int = 0
    batch_size: int = 0  # rows per inference pass; 0 means blocks of about BLOCK_ROWS

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")


@dataclass
class PredictionSummary:
    """One sample's MCD output: mean and spread of its T trial values."""

    sample_id: str
    mean: float
    std: float  # sample std (T-1 denominator); 0 when T == 1
    n_trials: int
    trials: np.ndarray | None = None  # retained only on request


@dataclass
class McdResult:
    """MCD output for n samples as columns: ids (list), mean and std
    (float64, shape (n,)), n_trials (int64, shape (n,)), and the (n, T)
    trial matrix when kept. r[i] is sample i's PredictionSummary."""

    ids: list
    mean: np.ndarray
    std: np.ndarray
    n_trials: np.ndarray
    trials: np.ndarray | None = None

    @classmethod
    def stack(cls, summaries):
        """One result from a sequence of PredictionSummary."""
        return cls(
            ids=[s.sample_id for s in summaries],
            mean=np.array([s.mean for s in summaries], dtype=np.float64),
            std=np.array([s.std for s in summaries], dtype=np.float64),
            n_trials=np.array([s.n_trials for s in summaries], dtype=np.int64),
        )

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        return PredictionSummary(
            sample_id=self.ids[i],
            mean=float(self.mean[i]),
            std=float(self.std[i]),
            n_trials=int(self.n_trials[i]),
            trials=None if self.trials is None else self.trials[i].copy(),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _scalarize(kind, out):
    if kind == "log_mse":
        return out[:, 0]
    if kind == "ziln":
        return losses.ziln_predict(out)
    raise ValueError(f"unknown loss kind {kind!r}")


def mcd_predict(net, data, cfg: McdConfig, loss_kind="log_mse", keep_trials=False, at=None):
    """Run T mc_sample forward passes over the dataset, then per-sample
    mean and sample std of the resulting trial vectors, aggregated in
    ascending trial order. Returns an McdResult, or with at (trial counts
    in [1, T]) a tuple of the McdResult the call gives at each T = t.

    Once a block's T passes are done, its moments are taken from its
    first t trials for each t, so only one block x T values are held;
    keep_trials holds all n x T, and the result for t its first t
    columns. A network without active dropout short-circuits to one eval
    pass per block: every trial would return the identical output, whose
    exact mean is that output itself, with zero spread. Raises
    NumericError naming the first sample whose mean or std is not finite;
    a pass that raises ends the call with the error a serial loop over
    the blocks and trials would raise first. Deterministic given (model,
    data, seed, T), whatever the number of CPUs.
    """
    x = data.features
    if x.shape[1] != net.input_dim:
        raise ShapeError(f"feature width {x.shape[1]} != network input {net.input_dim}")
    counts = (cfg.trials,) if at is None else tuple(at)
    if not all(1 <= t <= cfg.trials for t in counts):
        raise ValueError(f"trial counts must be in [1, {cfg.trials}], got {list(counts)}")
    n = x.shape[0]
    stochastic = getattr(net, "stochastic", lambda: True)()
    mode, passes = ("mc_sample", cfg.trials) if stochastic else ("eval", 1)
    blocks = _blocks(n, cfg.batch_size)
    # the arrays before the per-trial lists, so a T too large fails at once
    buffer = np.empty((max((stop - start for start, stop in blocks), default=0), passes))
    trials = np.empty((n, cfg.trials)) if keep_trials else None
    moments = [(np.empty(n), np.empty(n)) for _ in counts]
    kept = [[] for _ in range(passes)]  # trial j's uniform draws, in order
    shared_part = getattr(net, "shared_part", lambda rows: None)
    # a pass's multiply-adds per row: the size of every weight matrix
    macs = sum(p.size for p in getattr(net, "params", list)() if p.ndim == 2)
    for b, (start, stop) in enumerate(blocks):
        rows, block = x[start:stop], buffer[: stop - start]
        shared = shared_part(rows)
        extra = {} if shared is None else {"shared": shared}

        def run(j):  # trial j's pass over this block, done before the next block
            rng = None
            if stochastic:
                stream = RngStream(cfg.master_seed, f"mcd/{j}") if b == 0 else None
                rng = _Draws(kept[j], stream)
            out, _ = net.forward(rows, mode, rng, **extra)
            block[:, j] = _scalarize(loss_kind, out)

        _deal(_workers(passes, (stop - start) * macs), passes, run)
        for t, (means, stds) in zip(counts, moments):
            means[start:stop], stds[start:stop] = _moments(np.ascontiguousarray(block[:, :t]))
        if keep_trials:
            trials[start:stop] = block  # one eval pass fills every column
    results = tuple(_result(list(data.ids), means, stds, t,
                            None if trials is None else trials[:, :t])
                    for t, (means, stds) in zip(counts, moments))
    return results[0] if at is None else results


def _blocks(n, batch_size):
    """The (start, stop) row ranges of the inference passes: batch_size
    rows each, the last one shorter if need be; or, for batch_size 0, a
    block at every multiple of BLOCK_ROWS that has at least BLOCK_ROWS // 2
    rows from it on, each running to the next. So a shorter remainder
    joins the last block, no block exceeds 1535 rows, and n < 1536 rows
    are one block. train's validation pass runs in the same blocks."""
    if batch_size > 0:
        starts = list(range(0, n, batch_size))
    else:
        starts = list(range(0, n - BLOCK_ROWS // 2 + 1, BLOCK_ROWS)) or [0]
    return list(zip(starts, starts[1:] + [n]))


def _workers(passes, pass_macs):
    """The threads that run a block's passes of pass_macs multiply-adds
    each: one per CPU this process may run on, at most MAX_WORKERS and at
    most one per pass; one when the passes are under THREADED_MACS."""
    if pass_macs < THREADED_MACS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    return min(cpus, passes, MAX_WORKERS)


def _deal(workers, passes, run):
    """Call run(j) for every j < passes, on the calling thread and on
    workers - 1 helper threads that live for this call only, each taking
    the lowest j not yet taken. Once a call raises, no further call
    starts; after every helper has returned, the error of the lowest
    failing j is raised. Every lower j was taken before it and ran, so
    that is the error a serial loop raises. If the calling thread itself
    is interrupted, or a helper fails to start, the helpers take no
    further j and are joined before the exception propagates."""
    lock, errors = threading.Lock(), {}
    untaken = list(range(passes - 1, -1, -1))  # popped from the end: lowest j first

    def drain():
        while True:
            with lock:
                if errors or not untaken:
                    return
                j = untaken.pop()
            try:
                run(j)
            except BaseException as exc:  # raised on the calling thread below
                errors[j] = exc

    helpers = []
    try:
        for _ in range(workers - 1):
            helper = threading.Thread(target=drain)
            helper.start()
            helpers.append(helper)
        drain()
    finally:
        with lock:
            untaken.clear()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]


class _Draws:
    """The stream of one pass of a trial. The pass over the first block
    takes its draws from the trial's new RngStream and appends them to
    kept; every later pass reads kept back in order, which is what a new
    stream with that label would give it. So a call builds one stream per
    trial and holds one per worker at a time. Dropout asks a stream for
    uniform() only."""

    def __init__(self, kept, stream=None):
        self._kept = kept
        self._stream = stream
        self._next = 0

    def uniform(self, n):
        if self._stream is not None:
            self._kept.append(self._stream.uniform(n))
        self._next += 1
        return self._kept[self._next - 1]


def _moments(passes):
    """Row means and sample stds of the C-contiguous (n, k) matrix of the
    passes that ran; a single pass has zero spread. Each row's bits depend
    on that row alone, so a block of rows gives what the whole matrix
    gives. Overflow yields inf or nan here, which _result rejects."""
    n, k = passes.shape
    with np.errstate(over="ignore", invalid="ignore"):
        means = passes.mean(axis=1)
        if k == 1:
            return means, np.zeros(n)
        devs = passes - means[:, None]
        devs *= devs
        return means, np.sqrt(devs.sum(axis=1) / (k - 1))


def _result(ids, means, stds, t, trials):
    """The McdResult of T = t trials from its moment columns and the kept
    (n, t) trial matrix or None. Raises NumericError naming the first
    sample whose mean or std is not finite."""
    bad = ~(np.isfinite(means) & np.isfinite(stds))
    if bad.any():
        i = int(bad.argmax())
        raise NumericError(f"id {ids[i]!r}: MCD mean {float(means[i])!r} and std "
                           f"{float(stds[i])!r} must be finite; the model's predictions "
                           "are out of range")
    return McdResult(ids, means, stds, np.full(len(ids), t, dtype=np.int64), trials)


def confidence_interval(summary, z):
    """Closed interval mean ± z·std/sqrt(T) of one PredictionSummary, or
    elementwise arrays (lo, hi) of a whole McdResult. z is the paper's
    literal multiplier, in [0, 1]."""
    if not 0.0 <= z <= 1.0:
        raise ValueError("confidence threshold z must be in [0, 1]")
    half = z * summary.std / np.sqrt(summary.n_trials)
    return summary.mean - half, summary.mean + half
