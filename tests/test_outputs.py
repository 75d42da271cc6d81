"""One output commit per command: a command's artifacts and manifest reach
disk together, only when it succeeds, so a failing command leaves its
directory as it found it; two outputs that name one file are an error,
and an output that is a link stays a link to the new bytes.
Also: evaluate checks raw_mean against its mean, and MCD on a network
without dropout keeps no n x T matrix unless asked to."""

import csv
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from ltvmcd import McdConfig, cli, data, mcd_predict, nn
from test_contracts import run, run_fails, small_dataset


def snapshot(directory):
    """Every file under directory, by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def write_predictions(path, rows, raw=False):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "mean", "std", "n_trials"] + (["raw_mean"] if raw else []))
        w.writerows(rows)


@pytest.fixture
def inputs(tmp_path):
    ds = small_dataset()
    data.save_csv(ds, tmp_path / "d.csv")
    write_predictions(tmp_path / "p.csv", [[i, "1.0", "0.5", "4"] for i in ds.ids])
    (tmp_path / "r.json").write_text("old report")
    (tmp_path / "m.ckpt").write_text("old checkpoint")
    return tmp_path


# -- a failing command changes nothing ---------------------------------------

def command_argv(inputs, command):
    """A train or evaluate command line on the files of inputs."""
    if command == "train":
        return ["train", "--data", inputs / "d.csv", "--model", "mlp", "--out", inputs / "m.ckpt"]
    return ["evaluate", "--preds", inputs / "p.csv", "--data", inputs / "d.csv",
            "--k", 0.2, "--out", inputs / "r.json"]


@pytest.mark.parametrize("command, bad_option", [
    ("train", "--history-out"),
    ("train", "--test-out"),
    ("evaluate", "--curve-out"),
])
def test_failed_command_leaves_its_directory_unchanged(inputs, capsys, command, bad_option):
    bad_path = inputs / "nodir" / "out.csv"
    before = snapshot(inputs)
    line = run_fails(capsys, *command_argv(inputs, command), bad_option, bad_path)
    assert str(bad_path) in line and ".ltvmcd-" not in line
    assert snapshot(inputs) == before


@pytest.mark.parametrize("command, option, same_as", [
    ("train", "--history-out", "m.ckpt"),
    ("train", "--test-out", "m.ckpt.manifest.json"),
    ("evaluate", "--curve-out", "../{name}/r.json"),
])
def test_two_outputs_naming_one_file_fail_and_write_nothing(inputs, capsys, command, option,
                                                            same_as):
    path = f"{inputs}/{same_as.format(name=inputs.name)}"
    before = snapshot(inputs)
    line = run_fails(capsys, *command_argv(inputs, command), option, path)
    assert line == f"ltvmcd: error: {path}: two outputs of this command name this file"
    assert snapshot(inputs) == before


def test_staged_block_that_raises_keeps_old_targets_and_leaves_no_temp(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.json"
    first.write_text("old a")
    second.write_text("old b")
    with pytest.raises(RuntimeError):
        with data.staged_outputs() as out:
            data.write_csv(out.path(first), ["x"], [["1"]])
            with open(out.path(second), "w") as fh:
                fh.write("new b")
            assert len(list(tmp_path.iterdir())) == 4
            raise RuntimeError("interrupted")
    assert snapshot(tmp_path) == {"a.csv": b"old a", "b.json": b"old b"}


def test_staged_block_commits_every_target_in_order(tmp_path):
    with data.staged_outputs() as out:
        for name in ("b.txt", "a.txt"):
            with open(out.path(tmp_path / name), "w") as fh:
                fh.write(name)
        assert out.targets == [tmp_path / "b.txt", tmp_path / "a.txt"]
        assert not (tmp_path / "a.txt").exists()
    assert snapshot(tmp_path) == {"a.txt": b"a.txt", "b.txt": b"b.txt"}


def test_an_output_that_is_a_link_stays_a_link_to_the_new_bytes(tmp_path):
    (tmp_path / "g.json").write_text('{"n": 5, "dim": 2}')
    (tmp_path / "real.csv").write_text("old")
    link = tmp_path / "link.csv"
    link.symlink_to("real.csv")
    assert run("gen-data", "--config", tmp_path / "g.json", "--out", link) == 0
    assert link.is_symlink() and os.readlink(link) == "real.csv"
    assert (tmp_path / "real.csv").read_text().startswith("id,f0,f1,label\n")
    doc = json.loads((tmp_path / "link.csv.manifest.json").read_text())
    assert doc["artifacts"] == [str(link)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "g.json", "link.csv", "link.csv.manifest.json", "real.csv"]


def test_successful_train_lists_its_artifacts_and_leaves_no_temp(inputs):
    assert run("train", "--data", inputs / "d.csv", "--model", "mlp",
               "--out", inputs / "m.ckpt", "--test-out", inputs / "t.csv") == 0
    doc = json.loads((inputs / "m.ckpt.manifest.json").read_text())
    assert list(doc) == ["command", "config", "master_seed", "artifacts", "version",
                         "duration_seconds"]
    assert doc["command"] == "train"
    assert doc["artifacts"] == [str(inputs / "m.ckpt"), str(inputs / "m.ckpt.history.csv"),
                                str(inputs / "t.csv")]
    assert not [p for p in inputs.iterdir() if p.name.startswith(".ltvmcd-")]
    nn.load_checkpoint(inputs / "m.ckpt")


# -- evaluate checks raw_mean ------------------------------------------------

@pytest.mark.parametrize("raw_mean", ["-5", "nan", "inf", repr(math.expm1(1.0) * 2)])
def test_evaluate_rejects_a_raw_mean_that_is_not_expm1_of_mean(inputs, capsys, raw_mean):
    preds = inputs / "p.csv"
    rows = [[i, "1.0", "0.5", "4", repr(math.expm1(1.0))] for i in small_dataset().ids]
    rows[1][4] = raw_mean
    write_predictions(preds, rows, raw=True)
    line = run_fails(capsys, "evaluate", "--preds", preds, "--data", inputs / "d.csv",
                     "--out", inputs / "r.json")
    assert f"{preds}: line 3: raw_mean" in line
    assert (inputs / "r.json").read_text() == "old report"


def test_evaluate_rejects_a_mean_whose_expm1_overflows(inputs, capsys):
    rows = [[i, "1.0", "0.5", "4", repr(math.expm1(1.0))] for i in small_dataset().ids]
    rows[0][1], rows[0][4] = "1000.0", "inf"
    write_predictions(inputs / "p.csv", rows, raw=True)
    line = run_fails(capsys, "evaluate", "--preds", inputs / "p.csv",
                     "--data", inputs / "d.csv", "--out", inputs / "r.json")
    assert "line 2: raw_mean" in line


def test_read_predictions_accepts_raw_mean_equal_to_expm1_of_mean(tmp_path):
    means = [0.0, 1.0, 3.7, 709.0]
    write_predictions(tmp_path / "p.csv",
                      [[f"u{i}", repr(m), "0.5", "4", repr(math.expm1(m))]
                       for i, m in enumerate(means)], raw=True)
    _, raw = cli._read_predictions(tmp_path / "p.csv")
    assert raw.tolist() == [math.expm1(m) for m in means]


# -- MCD without dropout keeps no trial matrix -------------------------------

def test_mcd_without_dropout_allocates_no_trial_matrix():
    n, t = 2000, 256
    ds = small_dataset(n=n)
    net = nn.build_mlp(ds.dim, [4], 0.0, seed=1)
    cfg = McdConfig(trials=t)
    tracemalloc.start()
    try:
        result = mcd_predict(net, ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * t * 8 / 2
    eval_out, _ = net.forward(ds.features, "eval")
    assert result.mean.tolist() == eval_out[:, 0].tolist()
    assert (result.std == 0).all() and (result.n_trials == t).all()
    kept = mcd_predict(net, ds, cfg, keep_trials=True)
    assert kept.trials.shape == (n, t)
    assert (kept.trials == eval_out[:, :1]).all()
    assert np.array_equal(kept.mean, result.mean)
