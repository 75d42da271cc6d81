"""Out-of-range train and model settings in a config file end in exit 1
with one `ltvmcd: error:` line that names the file and the section,
before the dataset is read and without a numpy warning."""

import json
import warnings

import pytest

from test_contracts import run_fails

RANGES = {
    "beta1_above_one": ({"train": {"beta1": 2.5}},
                        "config.train: beta1 must be in [0, 1), got 2.5"),
    "beta2_one": ({"train": {"beta2": 1}}, "config.train: beta2 must be in [0, 1), got 1.0"),
    "beta1_negative": ({"train": {"beta1": -0.1}},
                       "config.train: beta1 must be in [0, 1), got -0.1"),
    "eps_and_lr_zero": ({"train": {"eps": 0, "learning_rate": 0}},
                        "config.train: eps must be > 0, got 0.0"),
    "lr_negative": ({"train": {"learning_rate": -1e-3}},
                    "config.train: learning_rate must be >= 0, got -0.001"),
    "batch_size_zero": ({"train": {"batch_size": 0}}, "config.train: batch_size must be >= 1"),
    "patience_zero": ({"train": {"patience": 0}}, "config.train: patience must be >= 1 or None"),
    "test_fraction_above_one": ({"test_fraction": 1.5},
                                "config: test_fraction must be in (0, 1), got 1.5"),
    "dropout_above_one": ({"model": {"dropout": 1.5}},
                          "config.model: dropout must be in [0, 1), got 1.5"),
    "dropout_one": ({"model": {"dropout": 1}}, "config.model: dropout must be in [0, 1), got 1.0"),
    "dropout_negative": ({"model": {"dropout": -0.2}},
                         "config.model: dropout must be in [0, 1), got -0.2"),
    "hidden_dims_zero": ({"model": {"hidden_dims": [8, 0]}},
                         "config.model: hidden_dims entries must be >= 1, got [8, 0]"),
    "deep_dims_negative": ({"model": {"deep_dims": [-4]}},
                           "config.model: deep_dims entries must be >= 1, got [-4]"),
    "n_cross_negative": ({"model": {"n_cross": -1}},
                         "config.model: n_cross must be >= 0, got -1"),
}


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("case", sorted(RANGES))
def test_out_of_range_setting_fails_before_the_data_is_read(tmp_path, capsys, case, command):
    doc, message = RANGES[case]
    (tmp_path / "t.json").write_text(json.dumps(doc))
    argv = [command, "--data", tmp_path / "absent.csv", "--config", tmp_path / "t.json",
            "--out", tmp_path / "o"]
    if command == "train":
        argv += ["--model", "mlp"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = run_fails(capsys, *argv)
    assert caught == []
    assert line == f"ltvmcd: error: {tmp_path / 't.json'}: {message}"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json"]
