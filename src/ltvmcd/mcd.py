"""Monte Carlo dropout inference: repeated stochastic forward passes and
per-sample summary statistics.

Trial j draws its dropout masks from a stream labeled "mcd/{j}" under
the run's master seed, so any trial can be replayed in isolation: one
mask per layer per trial, shared across all samples. The rows run in
blocks, outermost, with the T trials inside each block. Each trial's
stream is built once per call in each process that runs a pass of the
trial; its first pass there draws from it, and every later block
replays those draws, so all blocks see the masks a new stream with that
label would give, regardless of inference batching.
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

A call's passes are the items of one forked_map, item b x T + j being
trial j over block b, and item i runs on worker i % workers: for an even
T, trial j runs on worker j % workers over every block, and for an odd T
a trial's passes alternate between the workers, each of which builds
that trial's stream once. Worker 0 is the calling process, and each
other worker a child forked for this call alone, which sends each pass's
column through a pipe; the caller takes a block's moments once it holds
all T columns. A call forks only when its work (call_macs) reaches
FORKED_MACS, the affinity mask holds 2 CPUs or more, and the process has
no other OS thread: a fork copies the calling thread alone, so a lock
that another thread holds (an OpenBLAS pool's, say) stays held in the
child, and with the BLAS on more than one thread no call forks. A child
whose pass raises, that cannot start or that dies leaves its passes to
the caller from the one it did not send on; the caller starts a new
stream for each trial whose draws it does not hold (the same masks). The
caller takes the items in serial (block, trial) order, so it raises the
error a serial loop raises first, the worker count changes no output bit
and no error, and no child outlives the call. sweep-trials maps its reps
the same way, one item a rep. A forked worker, and a process while its
workers live, forks no child, so the MCD calls inside a rep run on their
own process and a command never runs more than MAX_WORKERS processes.

The result holds, as columns, the mean and sample standard deviation of
each sample's trial vector in the model's output space. For log-MSE
models that is log1p space; conversion to raw amounts happens at the
metrics boundary. ZILN heads are reduced to their expected raw amount
per trial (losses.point_fn). Both are row-wise reductions, so each
block's moments are taken as soon as its T passes are done, for every
requested trial count: a call holds one block x T trial values, and the
(n, T) trial matrix exists only when it is kept (keep_trials), with the
same bits either way. A mean or std that is not finite is an error
naming its sample.
"""

import contextlib
import functools
import os
import signal
from dataclasses import dataclass

import numpy as np

from . import losses
from .numcore import NumericError, RngStream, ShapeError

# Rows per inference block when batch_size is 0. A remainder of fewer than
# BLOCK_ROWS // 2 rows joins the last block, so no block is shorter than
# that (unless all rows are): that, not speed, is what keeps the bits of
# the whole-batch pass.
BLOCK_ROWS = 1024

# The most processes a call's passes run on: the count whose speed and
# peak RSS were measured (a 2-CPU host). Each holds one pass's
# activations, so a larger affinity mask runs no more until measured.
MAX_WORKERS = 2

# Multiply-adds of a job's passes (call_macs; times the reps of a sweep)
# below which they run on the calling process alone: the fork, the pipe
# and the reaping of the child cost about 4 ms, which a short call does
# not win back. On that host, with the BLAS on one thread, two processes
# against one (medians of 21 interleaved calls) took an MLP [128, 64, 32]
# 1.19x at 95M, 1.00x at 118M and 0.91x at 142M; a DCNv2 with deep
# [64, 32] 1.06x at 70M, 0.89x at 94M and 0.81x at 117M.
FORKED_MACS = 120_000_000


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
    exact mean is that output itself, with zero spread. The passes run
    as the items of one forked_map (see the module docstring). Raises
    NumericError naming the first sample whose mean or std is not finite;
    a pass that raises ends the call with the error a serial loop over
    the blocks and trials would raise first. Deterministic given (model,
    data, seed, T), whatever the number of CPUs.
    """
    point = losses.point_fn(loss_kind)  # an unknown kind raises before any pass
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
    sizes = [stop - start for start, stop in blocks]
    # the arrays before the per-trial lists, so a T too large fails at once
    buffer = np.empty((max(sizes, default=0), passes))
    trials = np.empty((n, cfg.trials)) if keep_trials else None
    moments = [(np.empty(n), np.empty(n)) for _ in counts]
    kept = [None] * passes  # trial j's uniform draws, once this process holds them
    shared_part = getattr(net, "shared_part", lambda rows: None)

    @functools.lru_cache(maxsize=1)  # a process computes a block's shared part once
    def extra(b):
        shared = shared_part(x[slice(*blocks[b])])
        return {} if shared is None else {"shared": shared}

    def run(i):  # item i: trial i % passes over block i // passes
        b, j = divmod(i, passes)
        rng = None
        if stochastic:
            stream = None
            if kept[j] is None:  # this process's first pass of trial j
                kept[j], stream = [], RngStream(cfg.master_seed, f"mcd/{j}")
            rng = _Draws(kept[j], stream)
        out, _ = net.forward(x[slice(*blocks[b])], mode, rng, **extra(b))
        return point(out)

    items = forked_map(run, len(blocks) * passes, lambda i: (sizes[i // passes],),
                       call_macs(net, n, cfg.trials))
    with contextlib.closing(items):  # an error between items ends the children at once
        for start, stop in blocks:
            block = buffer[: stop - start]
            for j in range(passes):
                block[:, j] = next(items)
            for t, (means, stds) in zip(counts, moments):
                means[start:stop], stds[start:stop] = _moments(np.ascontiguousarray(block[:, :t]))
            if keep_trials:
                trials[start:stop] = block  # one eval pass fills every column
    results = tuple(_result(list(data.ids), means, stds, t,
                            None if trials is None else trials[:, :t])
                    for t, (means, stds) in zip(counts, moments))
    return results[0] if at is None else results


def call_macs(net, rows, trials):
    """The multiply-adds of an MCD call of this many trials over rows: rows
    x the size of every weight matrix x its passes, which are one eval
    pass for a network without active dropout (mcd_predict)."""
    passes = trials if getattr(net, "stochastic", lambda: True)() else 1
    return rows * passes * sum(p.size for p in getattr(net, "params", list)() if p.ndim == 2)


def forked_map(fn, count, shape, work):
    """Yield fn(i) for i in range(count), in order, each fn(i) a float64
    array of shape(i) and all of them work multiply-adds together. Item i
    runs on worker i % workers, of _workers(count, work): worker 0 is the
    calling process, and each other one a child that computes its items
    in order and sends each one through its pipe. The caller computes an item that a child
    did not send (it raised, could not start or died), and every later
    item of that child; so the items come in serial order, the error
    raised is the one a serial loop raises first, and no exception
    crosses a pipe. The children live until the last item is taken or the
    generator is closed (contextlib.closing), whichever comes first."""
    workers = _workers(count, work)

    def work_items(w, fd):
        for i in range(w, count, workers):
            _send(fd, fn(i))

    with _forked(workers, work_items) as children:
        for i in range(count):
            w = i % workers
            item = _receive(children[w], shape(i)) if w in children else None
            if item is None:
                children.pop(w, None)  # its items are the caller's from here on
                item = fn(i)
            yield item


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


def _workers(items, work):
    """The processes that run a job's items of work multiply-adds in
    all: one per CPU of the affinity mask, at most MAX_WORKERS and at most
    one per item; one when work is under FORKED_MACS, and one unless
    /proc/self/task shows this process running on one OS thread."""
    if work < FORKED_MACS:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):  # no affinity masks or no /proc: no fork
        return 1
    return min(cpus, items, MAX_WORKERS) if threads == 1 else 1


# True in a process while it has live workers, and in every worker it
# forked: _forked starts no child there, so the calls a worker makes run
# on its process alone and a command never runs more than MAX_WORKERS.
_live = False


@contextlib.contextmanager
def _forked(workers, work):
    """Fork a child for each worker w in [1, workers) that runs work(w, fd),
    fd the write end of its pipe to the calling process, and ends with
    os._exit; none inside a worker, or while this process has live
    workers. A child whose pipe or fork fails is skipped. Yields
    {w: read end} for the children that started; on exit each of them is
    killed and reaped, whatever its state."""
    global _live
    outer, started = _live, {}  # w: (pid, read end)
    try:
        _live = True  # before each fork, so that every child holds it
        for w in range(1, 1 if outer else workers):
            child = _start(lambda fd, w=w: work(w, fd))
            if child is not None:
                started[w] = child
        _live = outer or bool(started)
        yield {w: fd for w, (_, fd) in started.items()}
    finally:
        for pid, fd in started.values():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _live = outer


def _start(body):
    """Fork a child that runs body(fd), fd the write end of a new pipe,
    and ends with os._exit. The pipe is grown to 1 MiB where the OS lets
    it (the most an unprivileged process may ask for by default on
    Linux), so a child runs up to 128 passes of 1024 rows ahead of the
    caller, against 8 at the 64 KiB default. Signals stay blocked from the
    fork until the child is inside its try, so no handler can unwind the
    child into the caller's stack. Returns (pid, read end), or None if the
    pipe or the fork fails."""
    import fcntl  # POSIX only; _workers forks on Linux alone

    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        with contextlib.suppress(OSError):  # where pipes are capped lower, the size they have
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)  # a write to a caller that is gone fails, ending the child
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                body(write_fd)
            finally:
                os._exit(0)  # the caller reads the pipe, never the status
    except OSError:
        os.close(read_fd)
        return None
    finally:
        os.close(write_fd)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return pid, read_fd


def _send(fd, item):
    """Write the array item to the pipe fd as float64, in C order."""
    view = memoryview(np.ascontiguousarray(item, dtype=np.float64)).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _receive(fd, shape):
    """The float64 array of this shape read from the pipe fd, or None if
    the writer ended before sending all of it."""
    item = np.empty(shape)
    view = memoryview(item).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return None
        view = view[got:]
    return item


class _Draws:
    """The stream of one pass of a trial. A process's first pass of a
    trial takes its draws from the trial's new RngStream and appends them
    to kept; each later pass there reads kept back in order. Every pass
    draws the same uniforms whatever its rows, so that is what a new
    stream with that label would give it: a process builds one stream per
    trial it runs and holds one at a time, and a caller that takes over a
    dead worker's trial in a later block starts it afresh with the same
    masks. Dropout asks a stream for uniform() only."""

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
        stds = passes.std(axis=1, ddof=1) if k > 1 else np.zeros(n)
        return passes.mean(axis=1), stds


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
