"""Bad inputs that end in exit 1 with one `ltvmcd: error:` line: a missing
output directory, an over-long CSV field in either CSV reader, and fuzzes
of both readers (a parsed object or ValueError/OSError, nothing else)."""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmcd import McdResult, cli, data
from test_contracts import run_fails, small_dataset

LONG_FIELD = "9" * (csv.field_size_limit() + 1)


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# -- atomic_open names the user's path ---------------------------------------

def test_atomic_open_names_the_target_when_its_directory_is_missing(tmp_path):
    target = tmp_path / "nodir" / "out.csv"
    with pytest.raises(FileNotFoundError) as info:
        with data.atomic_open(target):
            pass
    assert info.value.filename == str(target)


def test_train_names_a_history_path_in_a_missing_directory(tmp_path, capsys):
    data.save_csv(small_dataset(), tmp_path / "d.csv")
    history = tmp_path / "nodir" / "h.csv"
    line = run_fails(capsys, "train", "--data", tmp_path / "d.csv", "--model", "mlp",
                     "--out", tmp_path / "m.ckpt", "--history-out", history)
    assert str(history) in line and ".ltvmcd-" not in line


# -- one CSV row reader ------------------------------------------------------

def test_load_csv_rejects_an_over_long_field(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_rows(path, [["id", "f0", "label"], ["u0", "1.0", "2.0"], ["u1", LONG_FIELD, "2.0"]])
    with pytest.raises(data.CsvFormatError, match="line 3: field larger than field limit"):
        data.load_csv(path)
    line = run_fails(capsys, "train", "--data", path, "--model", "mlp",
                     "--out", tmp_path / "m.ckpt")
    assert f"{path}: line 3:" in line
    assert not (tmp_path / "m.ckpt").exists()


def test_evaluate_rejects_an_over_long_prediction_field(tmp_path, capsys):
    data.save_csv(small_dataset(n=3), tmp_path / "d.csv")
    preds = tmp_path / "p.csv"
    write_rows(preds, [["id", "mean", "std", "n_trials"], ["u0", "1.0", "0.5", "4"],
                       ["u1", "1.0", LONG_FIELD, "4"], ["u2", "1.0", "0.5", "4"]])
    line = run_fails(capsys, "evaluate", "--preds", preds, "--data", tmp_path / "d.csv",
                     "--out", tmp_path / "r.json")
    assert f"{preds}: line 3: field larger than field limit" in line
    assert not (tmp_path / "r.json").exists()


# -- predictions reader fuzz -------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
GOOD_FIELDS = {
    "id": st.text(max_size=5),
    "std": st.floats(min_value=0.0, allow_infinity=False).map(repr),
    "n_trials": st.integers(1, 2**63 - 1).map(str),
}
BAD_FIELDS = st.one_of(
    st.sampled_from(["", "-1", "0", "nan", "-inf", "inf", "1e400", "u0", str(2**63),
                     "1" + "0" * 400, "-" + "9" * 30]),
    st.floats().map(repr),
    st.text(max_size=5),
)
HEADERS = st.sampled_from([
    ["id", "mean", "std", "n_trials"],
    ["id", "mean", "std", "n_trials", "raw_mean"],
    ["id", "mean", "std", "n_trials", "raw_mean", "t0", "t1"],
    ["id", "mean", "std", "n_trials", "t0"],
    ["id", "mean", "std"],
    ["id", "mean", "std", "n_trials", "t1"],
])


def corrupted(draw, row):
    """The row, or with one field replaced by a bad one (a huge int,
    nan/inf, an empty string, text), or one field too many or too few."""
    if draw(st.integers(0, 3)) == 0:
        row[draw(st.integers(0, len(row) - 1))] = draw(BAD_FIELDS)
    ragged = draw(st.sampled_from([0] * 6 + [-1, 1]))
    return row[:ragged] if ragged < 0 else row + ["0"] * ragged


@st.composite
def prediction_files(draw):
    header = draw(HEADERS)
    rows = [corrupted(draw, [draw(GOOD_FIELDS.get(name, FINITE)) for name in header])
            for _ in range(draw(st.integers(0, 4)))]
    return [header, *rows]


@st.composite
def dataset_files(draw):
    d = draw(st.integers(1, 3))
    header = ["id", *(f"f{j}" for j in range(d)), "label"]
    if draw(st.integers(0, 5)) == 0:
        header = header[:-1]
    rows = [corrupted(draw, [draw(GOOD_FIELDS["id"]), *(draw(FINITE) for _ in range(d)),
                             draw(GOOD_FIELDS["std"])])
            for _ in range(draw(st.integers(0, 4)))]
    return [header, *rows]


def parse_or_value_error(parse, rows):
    """parse() on a file of these rows, or None if it raised ValueError or
    OSError; any other exception fails the test."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.csv")
        write_rows(path, rows)
        try:
            return parse(path)
        except (ValueError, OSError):
            return None


@settings(max_examples=300, deadline=None)
@given(prediction_files())
def test_read_predictions_returns_a_result_or_raises_value_error(rows):
    parsed = parse_or_value_error(cli._read_predictions, rows)
    if parsed is not None:
        result, raw = parsed
        assert isinstance(result, McdResult) and len(result) == len(rows) - 1
        assert result.n_trials.dtype == np.int64 and (result.n_trials >= 1).all()
        assert np.isfinite(result.mean).all() and (result.std >= 0).all()
        assert raw is None or raw.shape == (len(result),)


@settings(max_examples=300, deadline=None)
@given(dataset_files())
def test_load_csv_returns_a_dataset_or_raises_value_error(rows):
    ds = parse_or_value_error(data.load_csv, rows)
    if ds is not None:
        assert isinstance(ds, data.Dataset) and ds.n == len(rows) - 1
        assert ds.dim == len(rows[0]) - 2 and (ds.labels >= 0).all()
