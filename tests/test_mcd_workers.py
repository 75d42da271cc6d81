"""The trials of an MCD call run on up to mcd.MAX_WORKERS processes of the
affinity mask, trial j on worker j % workers with worker 0 the calling
process, and on the calling process alone when the call is short or the
process has another OS thread; these tests pin that the worker count
changes no output byte and no error, whatever happens to a child, and
that no child outlives a call."""

import collections
import errno
import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import oracles
from ltvmcd import losses, mcd, nn, numcore
from ltvmcd.data import Dataset
from ltvmcd.mcd import McdConfig, mcd_predict
from ltvmcd.numcore import NumericError, RngStream

# Python 3.12 warns on a fork while another thread runs: here pytest's
# faulthandler watchdog, which the forced worker counts below ignore
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning")


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def dataset(n, d=6, seed=0):
    x = 0.3 * np.random.default_rng(seed).normal(size=(n, d))
    return Dataset([f"u{i}" for i in range(n)], x, np.zeros(n))


def network(arch, loss, dropout=0.3):
    width = losses.head_width(loss)
    if arch == "mlp":
        return nn.build_mlp(6, [16, 8], dropout, out_dim=width, seed=3)
    return nn.build_dcnv2(6, 2, [16, 8], dropout, out_dim=width, seed=3)


def with_workers(monkeypatch, workers):
    monkeypatch.setattr(mcd, "_workers", lambda passes, work: min(workers, passes))


def one_thread(monkeypatch, cpus=64):
    """_workers sees an affinity mask of cpus CPUs and one OS thread."""
    listdir = os.listdir
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(mcd.os, "listdir",
                        lambda path: ["1"] if path == "/proc/self/task" else listdir(path))


def count_forks(monkeypatch):
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(mcd.os, "fork", counted)
    return forks


def log_passes(monkeypatch, log):
    """Each Network.forward appends its process id to the file log, from
    whichever process runs it."""
    forward = nn.Network.forward

    def spy(self, x, *args, **kwargs):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(nn.Network, "forward", spy)
    return lambda: collections.Counter(int(p) for p in log.read_text().split())


def columns(results):
    return [(r.mean.tobytes(), r.std.tobytes(), r.n_trials.tobytes(),
             None if r.trials is None else r.trials.tobytes()) for r in results]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("batch_size", [0, 7, 1000])
@pytest.mark.parametrize("arch", ["mlp", "dcnv2"])
@pytest.mark.parametrize("loss", ["log_mse", "ziln"])
def test_every_worker_count_gives_the_bytes_of_one(monkeypatch, workers, batch_size, arch,
                                                   loss):
    # 2600 rows: two 1024-row blocks and a 552-row tail at batch_size 0
    net, ds = network(arch, loss), dataset(2600)
    cfg = McdConfig(trials=5, master_seed=4, batch_size=batch_size)

    def run():
        kept = mcd_predict(net, ds, cfg, loss, keep_trials=True, at=(1, 3, 5))
        lean = mcd_predict(net, ds, cfg, loss)
        return columns(kept + (lean,))

    with_workers(monkeypatch, 1)
    serial = run()
    with_workers(monkeypatch, workers)
    assert run() == serial


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_net_without_dropout_runs_one_pass_in_the_calling_process(monkeypatch, tmp_path,
                                                                     workers):
    net, ds = network("mlp", "log_mse", dropout=0.0), dataset(40)
    with_workers(monkeypatch, workers)
    forks = count_forks(monkeypatch)
    passes = log_passes(monkeypatch, tmp_path / "passes")
    result = mcd_predict(net, ds, McdConfig(trials=6))
    assert forks == [] and passes() == {os.getpid(): 1}
    assert (result.std == 0).all() and (result.n_trials == 6).all()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_trial_j_runs_on_worker_j_mod_workers_over_every_block(monkeypatch, tmp_path, workers):
    net, ds = network("dcnv2", "log_mse"), dataset(30)
    with_workers(monkeypatch, workers)
    forks = count_forks(monkeypatch)
    passes = log_passes(monkeypatch, tmp_path / "passes")
    mcd_predict(net, ds, McdConfig(trials=8, batch_size=4))  # 8 blocks
    per_worker = [len(range(w, 8, workers)) * 8 for w in range(workers)]
    assert len(forks) == workers - 1
    assert passes() == dict(zip([os.getpid(), *forks], per_worker))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("loss", ["log_mse", "ziln"])
def test_the_replay_oracle_holds_on_every_worker_count(monkeypatch, workers, loss):
    net, ds = network("mlp", loss), dataset(2600)
    with_workers(monkeypatch, workers)
    result = mcd_predict(net, ds, McdConfig(trials=9, master_seed=5), loss, keep_trials=True)
    means, stds = oracles.mcd_replay(net, ds.features, 9, 5, loss)
    assert np.array_equal(result.mean, means)
    assert np.array_equal(result.std, stds)
    for s in result:
        assert s.std == oracles.sample_std(s.trials)


SEED, TRIALS = 7, 12
DRAWS = [RngStream(SEED, f"mcd/{j}").uniform(1)[0] for j in range(TRIALS)]
THRESHOLD = sorted(DRAWS)[3]  # four trials overflow
FIRST_FAILING = min(j for j, u in enumerate(DRAWS) if u <= THRESHOLD)


class SometimesOverflowingNet:
    """Duck-typed stochastic stand-in: a pass scales the input by 1e10
    when its trial's draw is at most THRESHOLD, which overflows on a row
    of 1e300; its error names the draw, and so the trial."""

    input_dim = 1

    def forward(self, x, mode, rng=None):
        u = rng.uniform(1)[0]
        with np.errstate(over="ignore"):
            out = x * (1e10 if u <= THRESHOLD else 1.0)
        numcore.ensure_finite(out, f"the pass of draw {u!r}")
        return out, None


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("large_row", [1, 6])  # in the first block of four rows, or the second
def test_every_worker_count_raises_the_error_of_the_lowest_failing_trial(monkeypatch, workers,
                                                                         large_row):
    # the failing trials are spread over the processes: a pass fails in the
    # calling process and in a child alike
    assert FIRST_FAILING > 0
    assert len({j % 2 for j, u in enumerate(DRAWS) if u <= THRESHOLD}) == 2
    x = np.ones((8, 1))
    x[large_row] = 1e300
    ds = Dataset([f"u{i}" for i in range(8)], x, np.zeros(8))
    with_workers(monkeypatch, workers)
    with pytest.raises(NumericError) as err:
        mcd_predict(SometimesOverflowingNet(), ds,
                    McdConfig(trials=TRIALS, master_seed=SEED, batch_size=4))
    assert str(err.value) == f"the pass of draw {DRAWS[FIRST_FAILING]!r} contains NaN or Inf"


@pytest.mark.parametrize("nth", [1, 5, 9])  # the child's first pass, one mid-call, its last
def test_a_worker_killed_mid_call_gives_the_bytes_of_one(monkeypatch, tmp_path, nth):
    net, ds = network("dcnv2", "ziln"), dataset(90)
    cfg = McdConfig(trials=6, master_seed=2, batch_size=30)  # 3 blocks of 3 passes a worker
    with_workers(monkeypatch, 1)
    serial = columns([mcd_predict(net, ds, cfg, "ziln", keep_trials=True)])
    caller, seen = os.getpid(), [0]
    passes = log_passes(monkeypatch, tmp_path / "passes")
    logged = nn.Network.forward

    def dies(self, x, *args, **kwargs):
        if os.getpid() != caller:
            seen[0] += 1
            if seen[0] == nth:
                os.kill(os.getpid(), signal.SIGKILL)
        return logged(self, x, *args, **kwargs)

    with_workers(monkeypatch, 2)
    monkeypatch.setattr(nn.Network, "forward", dies)
    assert columns([mcd_predict(net, ds, cfg, "ziln", keep_trials=True)]) == serial
    # the caller runs the child's trials from the block it died in on
    taken_over = 3 * (3 - (nth - 1) // 3)
    assert passes()[caller] == 9 + taken_over


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_worker_that_cannot_start_gives_the_bytes_of_one(monkeypatch, call):
    net, ds = network("mlp", "log_mse"), dataset(300)
    cfg = McdConfig(trials=7, master_seed=3, batch_size=64)
    with_workers(monkeypatch, 1)
    serial = columns(mcd_predict(net, ds, cfg, keep_trials=True, at=(2, 7)))

    def fails(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    with_workers(monkeypatch, 3)
    monkeypatch.setattr(mcd.os, call, fails)
    assert columns(mcd_predict(net, ds, cfg, keep_trials=True, at=(2, 7))) == serial


def test_an_interrupt_in_the_calling_process_leaves_no_child(monkeypatch):
    net, ds = network("mlp", "log_mse"), dataset(300)
    caller, forward, seen = os.getpid(), nn.Network.forward, [0]

    def interrupted(self, x, *args, **kwargs):
        if os.getpid() == caller:
            seen[0] += 1
            if seen[0] == 3:
                raise KeyboardInterrupt
        return forward(self, x, *args, **kwargs)

    with_workers(monkeypatch, 2)
    monkeypatch.setattr(nn.Network, "forward", interrupted)
    with pytest.raises(KeyboardInterrupt):
        mcd_predict(net, ds, McdConfig(trials=8, batch_size=20))


def test_the_worker_count_is_the_affinity_mask_capped_at_the_passes_and_the_maximum(
        monkeypatch):
    long_call = mcd.FORKED_MACS
    one_thread(monkeypatch, cpus=1)
    assert [mcd._workers(p, long_call) for p in (1, 64)] == [1, 1]
    monkeypatch.setattr(mcd, "MAX_WORKERS", 3)
    one_thread(monkeypatch, cpus=3)
    assert [mcd._workers(p, long_call) for p in (1, 2, 3, 64)] == [1, 2, 3, 3]
    one_thread(monkeypatch, cpus=64)
    assert mcd._workers(64, long_call) == 3


def test_short_calls_run_on_one_process_whatever_the_mask(monkeypatch):
    one_thread(monkeypatch)
    assert mcd._workers(64, mcd.FORKED_MACS - 1) == 1
    assert mcd._workers(64, mcd.FORKED_MACS) == mcd.MAX_WORKERS == 2


def test_a_second_os_thread_means_one_process(monkeypatch):
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert mcd._workers(64, mcd.FORKED_MACS) == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def bench_shaped_net(arch):
    # 11552 multiply-adds a row for the MLP, 2930 for the DCNv2
    if arch == "mlp":
        return nn.build_mlp(10, [128, 64, 32], 0.2, seed=4)
    return nn.build_dcnv2(10, 2, [64, 32], 0.2, seed=4)


@pytest.mark.parametrize("arch, rows, trials, forked", [("mlp", 2596, 4, False),
                                                        ("mlp", 2597, 4, True),
                                                        ("dcnv2", 2559, 16, False),
                                                        ("dcnv2", 2560, 16, True)])
def test_a_call_forks_only_when_its_work_reaches_the_constant(monkeypatch, arch, rows, trials,
                                                               forked):
    # 2596 x 11552 x 4 multiply-adds fall short of FORKED_MACS, 2597 x ... do not
    one_thread(monkeypatch)
    forks = count_forks(monkeypatch)
    x = 0.2 * np.random.default_rng(rows).normal(size=(rows, 10))
    ds = Dataset([f"u{i}" for i in range(rows)], x, np.zeros(rows))
    mcd_predict(bench_shaped_net(arch), ds, McdConfig(trials=trials))
    assert len(forks) == forked


def test_more_workers_than_cores_run_every_trial_once(monkeypatch, tmp_path):
    net, ds = network("dcnv2", "ziln"), dataset(90)
    cfg = McdConfig(trials=16, master_seed=2, batch_size=3)  # 30 blocks
    with_workers(monkeypatch, 1)
    serial = columns([mcd_predict(net, ds, cfg, "ziln", keep_trials=True)])
    with_workers(monkeypatch, 6)
    passes = log_passes(monkeypatch, tmp_path / "passes")
    forked = columns([mcd_predict(net, ds, cfg, "ziln", keep_trials=True)])
    assert sorted(passes().values()) == [2 * 30] * 2 + [3 * 30] * 4
    assert forked == serial


def test_a_process_on_one_os_thread_forks_and_one_with_two_does_not():
    """Run in a fresh interpreter with the BLAS on one thread, where the
    calling process is the only thread, unlike under this test runner."""
    script = textwrap.dedent("""
        import os, threading
        import numpy as np
        from ltvmcd import mcd, nn
        from ltvmcd.data import Dataset
        from ltvmcd.mcd import McdConfig, mcd_predict

        os.sched_getaffinity = lambda pid: {0, 1}
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        net = nn.build_mlp(10, [128, 64, 32], 0.2, seed=4)
        x = 0.2 * np.random.default_rng(0).normal(size=(3000, 10))
        ds = Dataset([str(i) for i in range(3000)], x, np.zeros(3000))
        alone = mcd_predict(net, ds, McdConfig(trials=4)).mean.tobytes()
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        beside = mcd_predict(net, ds, McdConfig(trials=4)).mean.tobytes()
        stop.set()
        other.join()
        print(len(forks), alone == beside)
    """)
    src = os.path.dirname(os.path.dirname(mcd.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]
