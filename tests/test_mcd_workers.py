"""mcd.forked_map runs its items on up to mcd.MAX_WORKERS processes of
the affinity mask, worker 0 being the calling process, and on the
calling process alone when the job is short or the process has another
OS thread. An MCD call's items are its passes, pass i on worker i %
workers (for an even T, trial j on worker j % workers over every block);
the items of sweep-trials are its reps, rep i on worker i % workers,
each worker's MCD calls on its own process. These tests pin that the
worker count changes no output byte and no error, whatever happens to a
child, that a command forks at most once per child, and that no child
outlives a call, whether it ends in a pass or between passes."""

import collections
import errno
import fcntl
import os
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import oracles
from ltvmcd import cli, losses, mcd, nn, numcore
from ltvmcd import data as datamod
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
    monkeypatch.setattr(mcd, "_workers", lambda items, work: min(workers, items))


def one_thread(monkeypatch, cpus=64):
    """_workers sees an affinity mask of cpus CPUs and one OS thread."""
    listdir = os.listdir
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(mcd.os, "listdir",
                        lambda path: ["1"] if path == "/proc/self/task" else listdir(path))


def log_forks(monkeypatch, log):
    """Each os.fork appends the id of the process that calls it to the file
    log, from whichever process calls it."""
    fork = os.fork

    def logged():
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(mcd.os, "fork", logged)
    return lambda: [int(p) for p in log.read_text().split()] if log.exists() else []


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
def test_pass_i_runs_on_worker_i_mod_workers_over_every_block(monkeypatch, tmp_path, workers):
    net, ds = network("dcnv2", "log_mse"), dataset(30)
    with_workers(monkeypatch, workers)
    forks = count_forks(monkeypatch)
    passes = log_passes(monkeypatch, tmp_path / "passes")
    mcd_predict(net, ds, McdConfig(trials=8, batch_size=4))  # 8 blocks, 64 passes
    per_worker = [len(range(w, 64, workers)) for w in range(workers)]
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
    # the caller runs the child's passes from the one it died in on
    assert passes()[caller] == 9 + (9 - (nth - 1))


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


def pipe_max_size():
    try:
        with open("/proc/sys/fs/pipe-max-size") as fh:
            return int(fh.read())
    except OSError:
        return 0


@pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ") or pipe_max_size() < 1 << 20,
                    reason="the OS does not let a process grow a pipe to 1 MiB")
def test_a_child_pipe_holds_1_mib():
    pid, fd = mcd._start(lambda fd: None)
    try:
        assert fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) >= 1 << 20
    finally:
        os.close(fd)
        os.waitpid(pid, 0)


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


def test_an_interrupt_between_passes_leaves_no_child(monkeypatch):
    net, ds = network("mlp", "log_mse"), dataset(300)
    moments, seen = mcd._moments, [0]

    def interrupted(passes):  # the caller takes the moments of the second block
        seen[0] += 1
        if seen[0] == 2:
            raise KeyboardInterrupt
        return moments(passes)

    with_workers(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(mcd, "_moments", interrupted)
    with pytest.raises(KeyboardInterrupt) as interrupt:
        mcd_predict(net, ds, McdConfig(trials=8, batch_size=20))
    with pytest.raises(ChildProcessError):  # while the traceback still holds the call's frame
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 1 and interrupt.traceback


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
    assert sorted(passes().values()) == [16 * 30 // 6] * 6
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


# -- sweep-trials: whole reps on the workers ----------------------------------

SWEEP_SEED = 3


def sweep_files(tmp_path, arch="dcnv2", loss="log_mse", n=60, dropout=0.3):
    """A checkpoint of arch and loss, and an n-row dataset with half its
    labels zero, in tmp_path; returns (checkpoint path, data path)."""
    rng = np.random.default_rng(n)
    labels = np.where(np.arange(n) % 2 == 0, rng.uniform(1.0, 100.0, n), 0.0)
    ds = Dataset([f"u{i}" for i in range(n)], 0.3 * rng.normal(size=(n, 6)), labels)
    datamod.save_csv(ds, tmp_path / "d.csv")
    nn.save_checkpoint(tmp_path / "m.ckpt", nn.Checkpoint(network(arch, loss, dropout), loss))
    return tmp_path / "m.ckpt", tmp_path / "d.csv"


def sweep(files, reps, batch_size=0, grid="4,1,3"):
    """sweep-trials' table bytes, or the exit code if it fails."""
    model, data = files
    out = data.parent / "sweep.csv"
    code = cli.main(["sweep-trials", "--model", str(model), "--data", str(data),
                     "--grid", grid, "--reps", str(reps), "--seed", str(SWEEP_SEED),
                     "--batch-size", str(batch_size), "--out", str(out)])
    return out.read_bytes() if code == 0 else code


@pytest.mark.parametrize("batch_size", [0, 7])
@pytest.mark.parametrize("arch", ["mlp", "dcnv2"])
@pytest.mark.parametrize("loss", ["log_mse", "ziln"])
def test_sweep_trials_writes_the_bytes_of_one_worker_on_every_count(monkeypatch, tmp_path,
                                                                   batch_size, arch, loss):
    files = sweep_files(tmp_path, arch, loss)
    for reps in range(1, 6):  # one rep keeps the trial split inside its MCD call
        tables = []
        for workers in (1, 2, 3):
            with_workers(monkeypatch, workers)
            tables.append(sweep(files, reps, batch_size))
        assert tables == [tables[0]] * 3, reps


@pytest.mark.parametrize("nth", [1, 2])  # the child's first rep (rep 1), or its second (rep 3)
def test_a_worker_killed_mid_sweep_gives_the_bytes_of_one(monkeypatch, tmp_path, nth):
    files = sweep_files(tmp_path, "dcnv2", "ziln")
    with_workers(monkeypatch, 1)
    serial = sweep(files, 4, batch_size=20)  # 3 blocks of 4 trials: 12 passes a rep
    caller, seen = os.getpid(), [0]
    forks = count_forks(monkeypatch)
    passes = log_passes(monkeypatch, tmp_path / "passes")
    predict = cli.mcd_predict

    def dies(*args, **kwargs):
        if os.getpid() != caller:
            seen[0] += 1
            if seen[0] == nth:
                os.kill(os.getpid(), signal.SIGKILL)
        return predict(*args, **kwargs)

    with_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "mcd_predict", dies)
    assert sweep(files, 4, batch_size=20) == serial
    # the caller runs reps 0 and 2, then the child's from the rep it died in
    # on; one more pass is the checkpoint load's zero-row check
    logged = passes()
    assert logged.pop(caller) == 12 * (2 + 3 - nth) + 1
    assert logged == ({forks[0]: 12} if nth == 2 else {})


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing", [(1, 2), (3,)])
def test_every_worker_count_raises_the_error_of_the_lowest_failing_rep(monkeypatch, tmp_path,
                                                                      capsys, workers, failing):
    # with 2 workers rep 1 fails in the child and rep 2 in the caller, and
    # rep 3 fails in the child; with 3 workers rep 3 fails in the caller
    files = sweep_files(tmp_path, "mlp", "log_mse")
    predict = cli.mcd_predict

    def fails(net, ds, cfg, **kwargs):
        rep = cfg.master_seed - SWEEP_SEED
        if rep in failing:
            raise NumericError(f"rep {rep} failed")
        return predict(net, ds, cfg, **kwargs)

    with_workers(monkeypatch, workers)
    monkeypatch.setattr(cli, "mcd_predict", fails)
    assert sweep(files, 5) == 1
    assert capsys.readouterr().err == f"ltvmcd: error: rep {failing[0]} failed\n"


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_sweep_whose_worker_cannot_start_gives_the_bytes_of_one(monkeypatch, tmp_path, call):
    files = sweep_files(tmp_path)
    with_workers(monkeypatch, 1)
    serial = sweep(files, 4, batch_size=7)

    def fails(*args):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    with_workers(monkeypatch, 2)
    monkeypatch.setattr(mcd.os, call, fails)
    assert sweep(files, 4, batch_size=7) == serial


def test_an_interrupt_in_the_calling_process_mid_sweep_leaves_no_child(monkeypatch, tmp_path):
    files = sweep_files(tmp_path)
    caller, predict, seen = os.getpid(), cli.mcd_predict, [0]

    def interrupted(*args, **kwargs):
        if os.getpid() == caller:
            seen[0] += 1
            if seen[0] == 2:
                raise KeyboardInterrupt
        return predict(*args, **kwargs)

    with_workers(monkeypatch, 2)
    monkeypatch.setattr(cli, "mcd_predict", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep(files, 4)


def test_a_sweep_without_dropout_counts_one_pass_a_rep(monkeypatch, tmp_path):
    # each rep runs one eval pass per block, whatever max(grid) is: 2 reps
    # of 3000 rows reach FORKED_MACS at 100 passes a rep, not at one
    files = sweep_files(tmp_path, n=3000, dropout=0.0)
    weights = sum(p.size for p in network("dcnv2", "log_mse", 0.0).params() if p.ndim == 2)
    assert 2 * 3000 * weights < mcd.FORKED_MACS <= 2 * 3000 * weights * 100
    with monkeypatch.context() as serial_run:
        with_workers(serial_run, 1)
        serial = sweep(files, 2, grid="1,100")
    one_thread(monkeypatch)
    forks = count_forks(monkeypatch)
    assert sweep(files, 2, grid="1,100") == serial
    assert forks == []


@pytest.mark.parametrize("workers", [2, 3])
def test_a_forced_sweep_forks_once_for_each_child_across_its_processes(monkeypatch, tmp_path,
                                                                         workers):
    # the children's MCD calls, and the caller's while its children live,
    # start no child of their own, though _workers grants them one
    files = sweep_files(tmp_path)
    forks = log_forks(monkeypatch, tmp_path / "forks")
    with_workers(monkeypatch, workers)
    sweep(files, 5, batch_size=7)
    assert forks() == [os.getpid()] * (workers - 1)


@pytest.mark.parametrize("reps", [1, 4])
def test_a_long_sweep_on_one_os_thread_forks_once_and_gives_the_bytes_of_one_cpu(tmp_path,
                                                                                reps):
    """Run in a fresh interpreter with the BLAS on one thread, where the
    calling process is the only thread, unlike under this test runner. A
    rep's MCD call reaches FORKED_MACS alone (3000 rows x 2930 x 16), so
    one rep splits its trials, and four split the reps."""
    rows = 3000
    rng = np.random.default_rng(1)
    labels = np.where(np.arange(rows) % 2 == 0, rng.uniform(1.0, 100.0, rows), 0.0)
    ds = Dataset([str(i) for i in range(rows)], 0.2 * rng.normal(size=(rows, 10)), labels)
    datamod.save_csv(ds, tmp_path / "d.csv")
    nn.save_checkpoint(tmp_path / "m.ckpt", nn.Checkpoint(bench_shaped_net("dcnv2")))
    script = textwrap.dedent("""
        import os, sys
        from ltvmcd import cli

        cpus, log = sys.argv[1:3]
        os.sched_getaffinity = lambda pid: set(range(int(cpus)))
        fork = os.fork

        def logged():
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\\n")
            return fork()

        os.fork = logged
        sys.exit(cli.main(sys.argv[3:]))
    """)
    src = os.path.dirname(os.path.dirname(mcd.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    tables, logs = [], []
    for cpus in (2, 1):
        out, log = tmp_path / f"sweep{cpus}.csv", tmp_path / f"forks{cpus}"
        argv = ["sweep-trials", "--model", tmp_path / "m.ckpt", "--data", tmp_path / "d.csv",
                "--grid", "1,4,16", "--reps", reps, "--out", out]
        proc = subprocess.run([sys.executable, "-c", script, str(cpus), log, *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        tables.append(out.read_bytes())
        logs.append(len(log.read_text().split()) if log.exists() else 0)
    assert logs == [1, 0]
    assert tables[0] == tables[1]
