"""The trials of each MCD block run on the CPUs of the process's affinity
mask, at most mcd.MAX_WORKERS of them, and on the calling thread alone
when its passes are short; these tests pin that the worker count changes
no output byte and no error, and that no thread outlives a call."""

import sys
import threading
import time

import numpy as np
import pytest

import oracles
from ltvmcd import losses, mcd, nn, numcore
from ltvmcd.data import Dataset
from ltvmcd.mcd import McdConfig, mcd_predict
from ltvmcd.numcore import NumericError, RngStream


def dataset(n, d=6, seed=0):
    x = 0.3 * np.random.default_rng(seed).normal(size=(n, d))
    return Dataset([f"u{i}" for i in range(n)], x, np.zeros(n))


def network(arch, loss, dropout=0.3):
    width = losses.head_width(loss)
    if arch == "mlp":
        return nn.build_mlp(6, [16, 8], dropout, out_dim=width, seed=3)
    return nn.build_dcnv2(6, 2, [16, 8], dropout, out_dim=width, seed=3)


def with_workers(monkeypatch, workers):
    monkeypatch.setattr(mcd, "_workers", lambda passes, pass_macs: min(workers, passes))


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
def test_a_net_without_dropout_runs_one_pass_on_the_calling_thread(monkeypatch, workers):
    net, ds = network("mlp", "log_mse", dropout=0.0), dataset(40)
    threads = []
    forward = nn.Network.forward

    def spy(self, x, *args, **kwargs):
        threads.append(threading.current_thread())
        return forward(self, x, *args, **kwargs)

    with_workers(monkeypatch, workers)
    monkeypatch.setattr(nn.Network, "forward", spy)
    result = mcd_predict(net, ds, McdConfig(trials=6))
    assert threads == [threading.main_thread()]
    assert (result.std == 0).all() and (result.n_trials == 6).all()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_at_most_workers_passes_run_at_once_and_no_thread_outlives_the_call(monkeypatch,
                                                                           workers):
    net, ds = network("dcnv2", "log_mse"), dataset(30)
    running, most, threads, lock = [0], [0], set(), threading.Lock()
    forward = nn.Network.forward

    def spy(self, x, *args, **kwargs):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
            threads.add(threading.current_thread())
        try:
            return forward(self, x, *args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    with_workers(monkeypatch, workers)
    monkeypatch.setattr(nn.Network, "forward", spy)
    before = threading.active_count()
    mcd_predict(net, ds, McdConfig(trials=8, batch_size=4))
    assert threading.active_count() == before
    assert most[0] <= workers
    if workers == 1:
        assert threads == {threading.main_thread()}


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
    assert FIRST_FAILING > 0
    x = np.ones((8, 1))
    x[large_row] = 1e300
    ds = Dataset([f"u{i}" for i in range(8)], x, np.zeros(8))
    with_workers(monkeypatch, workers)
    before = threading.active_count()
    with pytest.raises(NumericError) as err:
        mcd_predict(SometimesOverflowingNet(), ds,
                    McdConfig(trials=TRIALS, master_seed=SEED, batch_size=4))
    assert str(err.value) == f"the pass of draw {DRAWS[FIRST_FAILING]!r} contains NaN or Inf"
    assert threading.active_count() == before


def test_the_worker_count_is_the_affinity_mask_capped_at_the_passes_and_the_maximum(
        monkeypatch):
    long_pass = mcd.THREADED_MACS
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert [mcd._workers(p, long_pass) for p in (1, 64)] == [1, 1]
    monkeypatch.setattr(mcd, "MAX_WORKERS", 3)
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert [mcd._workers(p, long_pass) for p in (1, 2, 3, 64)] == [1, 2, 3, 3]
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert mcd._workers(64, long_pass) == 3


def test_short_passes_run_on_one_worker_whatever_the_mask(monkeypatch):
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert mcd._workers(64, mcd.THREADED_MACS - 1) == 1
    assert mcd._workers(64, mcd.THREADED_MACS) == mcd.MAX_WORKERS == 2


def bench_shaped_net(arch):
    # 11552 multiply-adds a row for the MLP, 2930 for the DCNv2
    if arch == "mlp":
        return nn.build_mlp(10, [128, 64, 32], 0.2, seed=4)
    return nn.build_dcnv2(10, 2, [64, 32], 0.2, seed=4)


@pytest.mark.parametrize("arch, rows, threaded", [("mlp", 346, False), ("mlp", 347, True),
                                                  ("dcnv2", 1000, False),
                                                  ("dcnv2", 2048, True)])
def test_a_block_runs_threaded_only_when_its_passes_are_long(monkeypatch, arch, rows,
                                                             threaded):
    # 346 MLP rows fall short of THREADED_MACS, 347 do not
    monkeypatch.setattr(mcd.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    worker_counts = []
    deal = mcd._deal

    def spy(workers, passes, run):
        worker_counts.append(workers)
        return deal(workers, passes, run)

    monkeypatch.setattr(mcd, "_deal", spy)
    x = 0.2 * np.random.default_rng(rows).normal(size=(2 * rows, 10))
    ds = Dataset([f"u{i}" for i in range(2 * rows)], x, np.zeros(2 * rows))
    mcd_predict(bench_shaped_net(arch), ds, McdConfig(trials=4, batch_size=rows))
    assert worker_counts == [2 if threaded else 1] * 2


def test_a_helper_that_fails_to_start_stops_the_others_and_raises(monkeypatch):
    net, ds = network("mlp", "log_mse"), dataset(40)
    passes, lock = [], threading.Lock()
    forward = nn.Network.forward

    def spy(self, x, *args, **kwargs):
        out = forward(self, x, *args, **kwargs)
        with lock:
            passes.append(threading.current_thread())
        return out

    class SecondStartFails(threading.Thread):
        starts = 0

        def start(self):
            SecondStartFails.starts += 1
            if SecondStartFails.starts == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    with_workers(monkeypatch, 3)
    monkeypatch.setattr(nn.Network, "forward", spy)
    monkeypatch.setattr(mcd.threading, "Thread", SecondStartFails)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        mcd_predict(net, ds, McdConfig(trials=1000, batch_size=40))
    assert threading.active_count() == before
    ran = len(passes)
    time.sleep(0.05)
    assert len(passes) == ran < 1000
    assert threading.main_thread() not in passes


def test_more_workers_than_cores_with_fast_switching_run_every_trial_once(monkeypatch):
    net, ds = network("dcnv2", "ziln"), dataset(90)
    cfg = McdConfig(trials=16, master_seed=2, batch_size=3)
    with_workers(monkeypatch, 1)
    serial = columns([mcd_predict(net, ds, cfg, "ziln", keep_trials=True)])
    calls, lock = [], threading.Lock()
    forward = nn.Network.forward

    def spy(self, x, mode, rng=None, **kwargs):
        out = forward(self, x, mode, rng, **kwargs)
        with lock:
            calls.append(len(x))
        return out

    with_workers(monkeypatch, 6)
    monkeypatch.setattr(nn.Network, "forward", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = columns([mcd_predict(net, ds, cfg, "ziln", keep_trials=True)])
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 16 * 30 and sum(calls) == 16 * 90
    assert threaded == serial
