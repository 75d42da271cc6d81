"""Every command turns each option value, and the seed, into its checked
value before it reads a file or trains: a bad value is its one error line,
with no checkpoint, dataset or predictions file read and no model trained."""

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
