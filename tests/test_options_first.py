"""Every command turns each option value, and the seed, into its checked
value before it reads a file or trains: a bad value is its one error line,
with no checkpoint, dataset or predictions file read and no model trained."""

import os

import pytest

from ltvmcd import cli
from test_contracts import run_fails
from test_train_copy import counted  # noqa: F401 (fixture: inputs and a call counter)

Z_GRID_ERROR = ("z grid needs 0 <= start <= stop <= 1, a finite step > 0 and at most "
                f"{cli.MAX_Z_POINTS} points, got '1:0:0.1'")
SEED_ERROR = "LTVMCD_SEED must be an integer, got 'abc'"

PREDICT = ["predict", "--model", "m.ckpt", "--data", "d.csv", "--out", "p2.csv"]
SWEEP = ["sweep-trials", "--model", "m.ckpt", "--data", "d.csv", "--grid", "1,4", "--reps", "1",
         "--out", "s.csv"]
EVALUATE = ["evaluate", "--preds", "p.csv", "--data", "d.csv", "--out", "r.json"]
COMPARE = ["compare", "--data", "d.csv", "--out", "c.csv"]
TRAIN = ["train", "--data", "d.csv", "--model", "mlp", "--out", "m2.ckpt"]

CASES = {
    "predict-trials": (PREDICT + ["--trials", "0"], "trial count must be >= 1"),
    "predict-batch-size": (PREDICT + ["--batch-size", "-1"], "batch_size must be >= 0"),
    "sweep-grid": (SWEEP + ["--grid", "0"], "grid entries must be >= 1, got '0'"),
    "sweep-grid-repeat": (SWEEP + ["--grid", "4,4,1"], "grid entries must be distinct, got '4,4,1'"),
    "sweep-reps": (SWEEP + ["--reps", "0"], "reps must be >= 1"),
    "sweep-batch-size": (SWEEP + ["--batch-size", "-1"], "batch_size must be >= 0"),
    "evaluate-z-grid": (EVALUATE + ["--z-grid", "1:0:0.1"], Z_GRID_ERROR),
    "compare-trials": (COMPARE + ["--trials", "0"], "trial count must be >= 1"),
}
SEED_COMMANDS = {"predict": PREDICT, "sweep-trials": SWEEP, "compare": COMPARE, "train": TRAIN}


def in_dir(tmp_path, argv):
    return [tmp_path / a if a.endswith((".csv", ".ckpt", ".json")) else a for a in argv]


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_bad_option_is_rejected_before_any_read(tmp_path, capsys, counted, case):
    argv, message = CASES[case]
    assert run_fails(capsys, *in_dir(tmp_path, argv)) == f"ltvmcd: error: {message}"
    assert counted == []


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_a_bad_env_seed_is_rejected_before_any_read(tmp_path, capsys, counted, monkeypatch, command):
    monkeypatch.setenv("LTVMCD_SEED", "abc")
    assert run_fails(capsys, *in_dir(tmp_path, SEED_COMMANDS[command])) == f"ltvmcd: error: {SEED_ERROR}"
    assert counted == []


def test_the_counted_calls_happen_on_a_good_run(tmp_path, counted):
    """The counters see the calls they guard, so an empty count means none ran."""
    for argv in (PREDICT + ["--trials", "2"], EVALUATE):
        assert cli.main([str(a) for a in in_dir(tmp_path, argv)]) == 0
    assert counted == ["load_checkpoint", "load_csv", "mcd_predict", "_read_predictions", "load_csv"]


GEN_DATA = ["gen-data", "--config", "g.json", "--out", "g.csv"]
OUT_DIR = "sub"  # a directory beside the inputs
DIR_LINK = "dir-link"  # a symbolic link to OUT_DIR
FIFO = "fifo.csv"  # a named pipe beside the inputs
MANIFEST_DIR = "x.csv.manifest.json"  # a directory where the manifest of --out x.csv goes

# a command line whose output cannot be reserved, and the target that fails;
# run from the directory of the inputs, so each path is as given
UNRESERVED = {
    "gen-data": (GEN_DATA + ["--out", "nodir/g.csv"], "nodir/g.csv"),
    "train-out": (TRAIN + ["--out", "nodir/m2.ckpt"], "nodir/m2.ckpt"),
    "train-history-out": (TRAIN + ["--history-out", "nodir/h.csv"], "nodir/h.csv"),
    "train-test-out": (TRAIN + ["--test-out", "nodir/t.csv"], "nodir/t.csv"),
    "predict": (PREDICT + ["--out", "nodir/p2.csv"], "nodir/p2.csv"),
    "evaluate-out": (EVALUATE + ["--out", "nodir/r.json"], "nodir/r.json"),
    "evaluate-curve-out": (EVALUATE + ["--curve-out", "nodir/c.csv"], "nodir/c.csv"),
    "sweep-trials": (SWEEP + ["--out", "nodir/s.csv"], "nodir/s.csv"),
    "compare": (COMPARE + ["--out", "nodir/c.csv"], "nodir/c.csv"),
    "train-history-clash": (TRAIN + ["--history-out", "m2.ckpt"], "m2.ckpt"),
    "train-test-clash": (TRAIN + ["--test-out", "m2.ckpt.history.csv"], "m2.ckpt.history.csv"),
    "evaluate-curve-clash": (EVALUATE + ["--curve-out", "r.json"], "r.json"),
    "gen-data-empty": (GEN_DATA + ["--out", ""], ""),
    "gen-data-dir": (GEN_DATA + ["--out", OUT_DIR], OUT_DIR),
    "gen-data-dir-slash": (GEN_DATA + ["--out", OUT_DIR + "/"], OUT_DIR + "/"),
    "train-history-dir": (TRAIN + ["--history-out", OUT_DIR], OUT_DIR),
    "gen-data-dir-link": (GEN_DATA + ["--out", DIR_LINK], DIR_LINK),
    "gen-data-fifo": (GEN_DATA + ["--out", FIFO], FIFO),
    "gen-data-manifest-dir": (GEN_DATA + ["--out", "x.csv"], MANIFEST_DIR),
    "predict-manifest-dir": (PREDICT + ["--out", "x.csv"], MANIFEST_DIR),
}


@pytest.mark.parametrize("case", sorted(UNRESERVED))
def test_an_output_that_cannot_be_reserved_fails_before_any_read(tmp_path, capsys, monkeypatch,
                                                                 counted, case):
    """Each command reserves its artifacts, its manifest last, before it
    reads or generates data: a missing output directory, a target that
    names no file (empty, a directory or a link to one, or ending in a
    separator), an existing target that is not a regular file, or a second
    artifact naming the file of an earlier one, is one error line naming
    the target, as open() gives it, and no work is done."""
    (tmp_path / "g.json").write_text('{"n": 50, "dim": 2}')
    (tmp_path / OUT_DIR).mkdir()
    (tmp_path / MANIFEST_DIR).mkdir()
    (tmp_path / DIR_LINK).symlink_to(OUT_DIR)
    os.mkfifo(tmp_path / FIFO)
    monkeypatch.chdir(tmp_path)
    generate = cli.datamod.generate_synthetic
    monkeypatch.setattr(cli.datamod, "generate_synthetic",
                        lambda cfg: counted.append("generate_synthetic") or generate(cfg))
    argv, target = UNRESERVED[case]
    if "clash" in case:
        message = f"{target}: two outputs of this command name this file"
    elif target == FIFO:
        message = f"{target}: not a regular file"
    elif target.startswith((OUT_DIR, DIR_LINK, MANIFEST_DIR)):
        message = f"[Errno 21] Is a directory: '{target}'"
    else:
        message = f"[Errno 2] No such file or directory: '{target}'"
    assert run_fails(capsys, *argv) == f"ltvmcd: error: {message}"
    assert counted == []
