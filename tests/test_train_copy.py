"""train holds one standardized copy of its train split: the split is
standardized in place, the test split is left raw (only compare
standardizes it), and save_csv writes 512-row blocks. Also: a value that
overflows once standardized is one line naming its feature and its row's
id, and a bad --k is rejected before any file is read or any pass is run."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ltvmcd import cli, data, nn, trainer
from test_contracts import run, run_fails, small_dataset


def synthetic(n, dim, seed):
    return data.generate_synthetic(data.SynthConfig(n=n, dim=dim, master_seed=seed))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# -- memory ------------------------------------------------------------------

def test_save_csv_holds_less_than_its_feature_matrix(tmp_path):
    # 20k x 10 rows: 1.14 MB in 512-row blocks, 2.27 MB in 1024-row ones
    ds = synthetic(20000, 10, 5)
    peak = traced_peak(lambda: data.save_csv(ds, tmp_path / "d.csv"))
    assert peak < ds.features.nbytes


def test_train_peaks_below_four_feature_matrices(tmp_path):
    # 5.59 MB with one standardized train split; 7.03 MB when train also
    # held the raw train split, a standardized test split and 4096-row blocks
    ds = synthetic(20000, 10, 5)
    data.save_csv(ds, tmp_path / "d.csv")
    (tmp_path / "t.json").write_text(json.dumps(
        {"train": {"epochs": 1}, "model": {"hidden_dims": [16]}}))
    argv = ["train", "--data", tmp_path / "d.csv", "--model", "mlp", "--config", tmp_path / "t.json",
            "--out", tmp_path / "m.ckpt", "--test-out", tmp_path / "t.csv"]
    codes = []
    peak = traced_peak(lambda: codes.append(run(*argv)))
    assert codes == [0]
    assert peak < 4 * ds.features.nbytes


# -- one standardization -----------------------------------------------------

def constant_first_feature():
    ds = synthetic(300, 4, 2)
    ds.features[:, 0] = 7.0
    return ds


@pytest.mark.parametrize("make", [lambda: synthetic(500, 5, 8), constant_first_feature],
                         ids=["varying", "constant_f0"])
def test_standardize_leaves_its_inputs_and_matches_the_in_place_bytes(make):
    train, test = data.split(make(), 0.8, seed=3)
    before = [ds.features.tobytes() for ds in (train, test)]
    train_std, test_std = data.standardize(train, test)
    assert [ds.features.tobytes() for ds in (train, test)] == before
    assert train.norm_mean is None and test.norm_mean is None

    data.standardize_in_place(train)
    data.standardize_in_place(test, train.norm_mean, train.norm_std)
    for in_place, copy in ((train, train_std), (test, test_std)):
        assert in_place.features.tobytes() == copy.features.tobytes()
        assert in_place.norm_mean.tobytes() == copy.norm_mean.tobytes()
        assert in_place.norm_std.tobytes() == copy.norm_std.tobytes()


# -- a value that overflows once standardized --------------------------------

HUGE = 1.5e308  # finite, but twice it is not


@pytest.mark.parametrize("command", ["predict", "sweep-trials"])
def test_an_overflow_in_the_checkpoint_norm_names_the_feature_and_id(tmp_path, capsys, command):
    ds = small_dataset()
    ds.features[3, 0] = HUGE
    data.save_csv(ds, tmp_path / "d.csv")
    norm = (np.zeros(ds.dim), np.array([0.5, 1.0, 1.0]))
    nn.save_checkpoint(tmp_path / "m.ckpt",
                       nn.Checkpoint(network=nn.build_mlp(ds.dim, [8], 0.3, seed=2), norm=norm))
    trials = ["--trials", 4] if command == "predict" else ["--grid", "1,2", "--reps", 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = run_fails(capsys, command, "--model", tmp_path / "m.ckpt", "--data", tmp_path / "d.csv",
                         *trials, "--out", tmp_path / "out.csv")
    assert line == "ltvmcd: error: id 'u3': feature f0 is not finite once standardized"


@pytest.fixture
def huge_test_row(tmp_path):
    """d.csv whose f0 has a train-split std near 0.5 and one test-split row
    with f0 = HUGE, under --seed 3 and the default test fraction; returns
    that row's id."""
    ds = small_dataset(n=60)
    ds.features[:, 0] *= 0.5
    _, test = data.split(ds, 0.8, seed=3)
    row = ds.ids.index(test.ids[0])
    ds.features[row, 0] = HUGE
    data.save_csv(ds, tmp_path / "d.csv")
    (tmp_path / "t.json").write_text(json.dumps({"train": {"epochs": 1}}))
    return ds.ids[row]


def test_compare_names_a_test_row_that_overflows_once_standardized(tmp_path, capsys, huge_test_row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = run_fails(capsys, "compare", "--data", tmp_path / "d.csv", "--config", tmp_path / "t.json",
                         "--seed", 3, "--out", tmp_path / "c.csv")
    assert line == f"ltvmcd: error: id {huge_test_row!r}: feature f0 is not finite once standardized"


def test_train_leaves_the_test_split_raw(tmp_path, huge_test_row):
    assert run("train", "--data", tmp_path / "d.csv", "--model", "mlp", "--config", tmp_path / "t.json",
               "--seed", 3, "--out", tmp_path / "m.ckpt", "--test-out", tmp_path / "t.csv") == 0
    test = data.load_csv(tmp_path / "t.csv")
    assert test.features[test.ids.index(huge_test_row), 0] == HUGE


# -- --k is checked first ----------------------------------------------------

@pytest.fixture
def counted(tmp_path, monkeypatch):
    """Inputs for evaluate, sweep-trials and compare, and a counter of the
    file reads, MCD calls and training runs made after they exist."""
    ds = small_dataset()
    data.save_csv(ds, tmp_path / "d.csv")
    nn.save_checkpoint(tmp_path / "m.ckpt", nn.Checkpoint(network=nn.build_mlp(ds.dim, [4], 0.2, seed=1)))
    (tmp_path / "p.csv").write_text("id,mean,std,n_trials\n" + "".join(f"{i},1.0,0.5,4\n" for i in ds.ids))
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((data, "load_csv"), (cli, "_read_predictions"), (nn, "load_checkpoint"),
                        (cli, "mcd_predict"), (trainer, "train")):
        count(owner, name)
    return calls


K_ARGV = {
    "evaluate": ["--preds", "p.csv", "--data", "d.csv", "--out", "r.json"],
    "sweep-trials": ["--model", "m.ckpt", "--data", "d.csv", "--grid", "1,4", "--reps", "1",
                     "--out", "s.csv"],
    "compare": ["--data", "d.csv", "--trials", "2", "--out", "c.csv"],
}


@pytest.mark.parametrize("k", ["0", "1.5", "nan"])
@pytest.mark.parametrize("command", sorted(K_ARGV))
def test_a_bad_k_is_rejected_before_any_read_or_pass(tmp_path, capsys, counted, command, k):
    argv = [tmp_path / a if a.endswith((".csv", ".ckpt", ".json")) else a for a in K_ARGV[command]]
    line = run_fails(capsys, command, *argv, "--k", k)
    assert line == f"ltvmcd: error: k must be in (0, 1], got {float(k)}"
    assert counted == []
