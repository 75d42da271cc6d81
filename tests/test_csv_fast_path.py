"""The fast dataset CSV path changes no outcome: load_csv returns what the
row-by-row reader returned, or raises its exact CsvFormatError; save_csv
writes the bytes csv.writer writes; a file that is not UTF-8 is named with
its line; and load_csv keeps no per-row Python objects but the ids."""

import csv
import io
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmcd import data
from test_contracts import run, run_fails, small_dataset

LIMIT = csv.field_size_limit()


# -- the reference: load_csv as it was, one csv.reader row at a time ----------

def reference_csv_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lineno = 0
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                yield lineno, row
        except csv.Error as exc:
            raise data.CsvFormatError(f"{path}: line {lineno + 1}: {exc}") from None


def reference_load_csv(path):
    rows = reference_csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise data.CsvFormatError(f"{path}: empty file") from None
    d = len(header) - 2
    expected = ["id"] + [f"f{j}" for j in range(d)] + ["label"]
    if d < 1 or header != expected:
        raise data.CsvFormatError(f"{path}: line 1: bad header {header!r}")
    ids = []
    feats = []
    labels = []
    for lineno, row in rows:
        if len(row) != d + 2:
            raise data.CsvFormatError(f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as e:
            raise data.CsvFormatError(f"{path}: line {lineno}: {e}") from None
        if not all(math.isfinite(v) for v in values):
            raise data.CsvFormatError(f"{path}: line {lineno}: non-finite value")
        if values[-1] < 0:
            raise data.CsvFormatError(f"{path}: line {lineno}: negative label {values[-1]}")
        ids.append(row[0])
        feats.append(values[:-1])
        labels.append(values[-1])
    if not ids:
        raise data.CsvFormatError(f"{path}: no data rows")
    return data.Dataset(ids=ids, features=np.array(feats), labels=np.array(labels))


def outcome(load, path):
    """What load(path) gives: the ids, the exact bytes, shape and layout of
    both arrays, or the exception's type and message."""
    try:
        ds = load(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return (ds.ids, ds.features.shape, ds.features.tobytes(), ds.features.flags.c_contiguous,
            ds.labels.tobytes(), ds.labels.flags.c_contiguous)


def assert_same_as_reference(path):
    expected = outcome(reference_load_csv, path)
    assert outcome(data.load_csv, path) == expected
    return expected


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# -- the reader: explicit cases ----------------------------------------------

HEADER = "id,f0,f1,label\n"
QUOTED = io.StringIO()
csv.writer(QUOTED, lineterminator="\n").writerows(
    [["id", "f0", "f1", "label"], ["a,b", "1.5", "2", "3"], ['say "hi"', "4", "5", "6"]])

CASES = {
    "plain": HEADER + "u0,0.5,-1.25,0.0\nu1,2.0,3.5,99.5\n",
    "quoted ids with , and \"": QUOTED.getvalue(),
    "quoted number": HEADER + 'u0,"1.5",2,3\n',
    "quoted id": HEADER + '"u0",1,2,3\n',
    "quoted id with \"": HEADER + '"say ""hi""",1,2,3\n',
    "crlf": HEADER.replace("\n", "\r\n") + "u0,1,2,3\r\nu1,4,5,6\r\n",
    "crlf rows only": HEADER + "u0,1,2,3\r\nu1,4,5,6\r\n",
    "cr only": HEADER + "u0,1,2,3\ru1,4,5,6\r",
    "blank line": HEADER + "u0,1,2,3\n\nu1,4,5,6\n",
    "trailing blank line": HEADER + "u0,1,2,3\n\n",
    "no final newline": HEADER + "u0,1,2,3\nu1,4,5,6",
    "hash at line start": HEADER + "#u0,1,2,3\nu1,4,5,6\n",
    "hash comment line": HEADER + "u0,1,2,3\n# note\n",
    "hash before a number": HEADER + "u0,#1,2,3\n",
    "spaces around fields": HEADER + " u0 , 1.5 ,\t2\t, 3 \n",
    "blank field": HEADER + "u0, ,2,3\n",
    "empty field": HEADER + "u0,,2,3\n",
    "empty id": HEADER + ",1,2,3\n",
    "underscore digits": HEADER + "u0,1_0,2,3\n",
    "non-ascii digits": HEADER + "u0,١٢,2,3\n",
    "non-ascii space": HEADER + "u0,\xa01\u2028,2,3\n",
    **{f"{c!r} around a number": HEADER + f"u0,{c}1,2{c},3\n" for c in "\x1c\x1d\x1e\x1f"},
    "nul": HEADER + "u\x000,1,2\x00,3\n",
    "nan": HEADER + "u0,nan,2,3\n",
    "inf label": HEADER + "u0,1,2,inf\n",
    "overflow": HEADER + "u0,1e400,2,3\n",
    "nan with payload": HEADER + "u0,nan(1),2,3\n",
    "hex": HEADER + "u0,0x1p3,2,3\n",
    "negative label": HEADER + "u0,1,2,-3\n",
    "negative zero label": HEADER + "u0,1,2,-0.0\n",
    "finite field over the csv limit": HEADER + "u0,0." + "0" * LIMIT + "1,2,3\n",
    "id over the csv limit": HEADER + "u" * (LIMIT + 1) + ",1,2,3\n",
    "line just over the csv limit": HEADER + "u" * (LIMIT - 10) + ",1,2,3\n",
    "too few fields": HEADER + "u0,1,3\n",
    "too many fields": HEADER + "u0,1,2,3,4\n",
    "header only": HEADER,
    "header without newline": HEADER[:-1],
    "empty file": "",
    "bad header": "id,x0,label\nu0,1,2\n",
    "crlf header": "id,f0,label\r\nu0,1,2\n",
    "header without features": "id,label\nu0,1\n",
    "bom": "\ufeff" + HEADER + "u0,1,2,3\n",
    "one column": "id\nu0\n",
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_load_csv_matches_the_row_reader(tmp_path, text):
    path = tmp_path / "d.csv"
    write_text(path, text)
    assert_same_as_reference(path)


def test_a_field_over_the_csv_limit_fails_as_before(tmp_path):
    path = tmp_path / "d.csv"
    write_text(path, CASES["finite field over the csv limit"])
    with pytest.raises(data.CsvFormatError, match="line 2: field larger than field limit"):
        data.load_csv(path)


def test_plain_files_take_the_c_parser(tmp_path):
    ds = data.generate_synthetic(data.SynthConfig(n=3 * data._BLOCK_ROWS + 7, dim=5, master_seed=2))
    path = tmp_path / "d.csv"
    data.save_csv(ds, path)
    assert data._load_plain(path) is not None
    ids, shape, features, contiguous, labels, _ = assert_same_as_reference(path)
    assert ids == ds.ids and shape == ds.features.shape and contiguous
    assert features == ds.features.tobytes() and labels == ds.labels.tobytes()


def load_from_pipe(tmp_path, content):
    """load_csv of a FIFO that content (bytes) is written into: the Dataset,
    or the exception. Fails if load_csv is still blocked after 10 s, as it
    is when it opens the FIFO a second time."""
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)
    result = []

    def load():
        try:
            result.append(data.load_csv(fifo))
        except ValueError as exc:
            result.append(exc)

    reader = threading.Thread(target=load, daemon=True)
    reader.start()
    fifo.write_bytes(content)
    reader.join(timeout=10)
    assert not reader.is_alive()
    return result[0]


def test_a_pipe_is_read_once(tmp_path):
    ds = load_from_pipe(tmp_path, CASES["quoted ids with , and \""].encode())
    assert ds.ids == ["a,b", 'say "hi"']


def test_a_pipe_that_is_not_utf8_is_named(tmp_path):
    exc = load_from_pipe(tmp_path, HEADER.encode() + b"\xff0,1,2,3\n")
    assert isinstance(exc, data.CsvFormatError)
    assert str(exc).startswith(f"{tmp_path / 'd.csv'}: line 2: ")


# -- the reader: fuzz --------------------------------------------------------

NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10, 10).map(str),
    st.sampled_from(["", " ", "1_0", "١", " 2.5 ", "\x1c1", "1\x1f", "-0.0", "+.5", "1e",
                     "1e400", "-1e-400", "nan", "-inf", "Infinity", "#1", "0x10", "1,5", '"7"']),
    st.text(max_size=4),
)
IDS = st.one_of(st.text(max_size=4), st.sampled_from(["u0", "a,b", 'q"', "r\r", "n\n", "#", ""]))


@st.composite
def dataset_texts(draw):
    """A dataset file as text: a header that may be wrong, rows of ids and
    numbers that may be bad, written with or without csv quoting, with
    "\n" or "\r\n" line ends, maybe a blank line or no final newline."""
    d = draw(st.integers(1, 3))
    header = ["id", *(f"f{j}" for j in range(d)), "label"]
    if draw(st.integers(0, 7)) == 0:
        header = header[:-1]
    rows = [header] + [
        [draw(IDS), *(draw(NUMBERS) for _ in range(d + draw(st.sampled_from([0] * 6 + [-1, 1])))),
         draw(st.floats(min_value=0.0).map(repr) | NUMBERS)]
        for _ in range(draw(st.integers(0, 5)))
    ]
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n"]))
    if draw(st.booleans()):
        buf = io.StringIO()
        csv.writer(buf, lineterminator=end).writerows(rows)
        lines = buf.getvalue().split(end)[:-1]
    else:
        lines = [",".join(row) for row in rows]
    if lines and draw(st.integers(0, 7)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = end.join(lines)
    return text + end if draw(st.integers(0, 7)) else text


@settings(max_examples=400, deadline=None)
@given(dataset_texts())
def test_load_csv_fuzz_matches_the_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "d.csv"
    write_text(path, text)
    assert_same_as_reference(path)


# -- the writer --------------------------------------------------------------

def csv_writer_bytes(ds):
    """save_csv's file as csv.writer alone writes it, except for a row with
    a field holding a bare \r: csv.writer on Python 3.11 leaves that field
    unquoted, so such a row is spelled out here with every field that holds
    , " \r or \n quoted."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *(f"f{j}" for j in range(ds.dim)), "label"])
    for i, f, v in zip(ds.ids, ds.features, ds.labels):
        row = [str(i), *map(repr, f.tolist()), repr(float(v))]
        if "\r" in row[0]:
            buf.write(",".join(quoted(field) for field in row) + "\n")
        else:
            writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def quoted(field):
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


ROW_IDS = st.one_of(
    st.text(max_size=5),
    st.sampled_from(["u0", "a,b", 'q"x', "r\rs", "n\nm", "\r\n", "", " "]),
    st.integers(-2**70, 2**70),
)
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, 0.1, 1e300]))


@st.composite
def datasets(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    features = np.array([[draw(VALUES) for _ in range(d)] for _ in range(n)])
    labels = np.array([abs(draw(VALUES)) for _ in range(n)])
    return data.Dataset([draw(ROW_IDS) for _ in range(n)], features, labels)


@settings(max_examples=400, deadline=None)
@given(datasets())
def test_save_csv_writes_the_bytes_of_csv_writer(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("w") / "out.csv"
    data.save_csv(ds, path)
    assert path.read_bytes() == csv_writer_bytes(ds)


def test_save_csv_joins_plain_blocks_and_quotes_the_others(tmp_path):
    """Three blocks: plain, one id that needs quoting, plain."""
    ds = small_dataset(n=3 * data._BLOCK_ROWS)
    ds.ids[data._BLOCK_ROWS + 7] = "a,b"
    path = tmp_path / "d.csv"
    data.save_csv(ds, path)
    assert path.read_bytes() == csv_writer_bytes(ds)
    assert data.load_csv(path).ids == ds.ids


QUOTING_IDS = [
    ["a,b", 'say "hi"', "n\nm", "\r\n", "", " pad ", "#x", "u7"],
    # Python 3.11's csv.writer leaves a bare CR unquoted; save_csv quotes it
    ["a", "r\rs", "b", "\r", 'q"\r'],
]


@pytest.mark.parametrize("ids", QUOTING_IDS)
def test_save_csv_round_trips_ids_that_need_quoting(tmp_path, ids):
    ds = small_dataset(n=len(ids))
    ds.ids = list(ids)
    path = tmp_path / "d.csv"
    data.save_csv(ds, path)
    assert path.read_bytes() == csv_writer_bytes(ds)
    back = data.load_csv(path)
    assert back.ids == ds.ids
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_write_csv_quotes_a_bare_cr_and_leaves_other_rows_alone(tmp_path):
    rows = [["r\rs", 1.5, 2], ["u1", 0.25, 3], ["\r", "a,b", ""], ["n\nm", "", 'q"']]
    path = tmp_path / "p.csv"
    data.write_csv(path, ["id", "x", "k"], rows)
    assert path.read_bytes() == (b'id,x,k\n"r\rs",1.5,2\nu1,0.25,3\n"\r","a,b",\n'
                                 b'"n\nm",,"q"""\n')
    assert [row for _, row in data.csv_rows(path)] == [["id", "x", "k"], *(
        [str(field) for field in row] for row in rows)]


FIELDS = st.one_of(
    st.sampled_from(["u0", "a,b", 'q"x', "n\nm", "r\rs", '""', "", " ", "#x"]),
    st.text(max_size=3),
    st.integers(-2**70, 2**70),
    VALUES,
    st.none(),
)
PLAIN_FIELDS = st.one_of(st.sampled_from(["u0", " ", "#x", "1e-05"]), st.integers(), VALUES)


@st.composite
def tables(draw):
    """Runs of repeated rows, each run up to twice _SAVE_ROWS long, so that
    a block of plain rows meets a block that needs quoting."""
    row = st.one_of(st.lists(FIELDS, min_size=1, max_size=4),
                    st.lists(PLAIN_FIELDS, min_size=1, max_size=4), st.just([""]))
    runs = draw(st.lists(st.tuples(row, st.integers(1, 2 * data._SAVE_ROWS)), min_size=1, max_size=4))
    return [list(r) for r, count in runs for _ in range(count)]


def csv_writer_text(rows):
    """rows as csv.writer alone writes them, but for a row with a field
    holding \r, spelled out as csv_writer_bytes spells it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        fields = ["" if value is None else str(value) for value in row]
        if any("\r" in field for field in fields):
            buf.write(",".join(map(quoted, fields)) + "\n")
        else:
            writer.writerow(row)
    return buf.getvalue().encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(tables())
def test_write_csv_writes_the_bytes_of_csv_writer_on_mixed_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("w") / "out.csv"
    header = ["id", "x"]
    data.write_csv(path, header, rows)
    assert path.read_bytes() == csv_writer_text([header, *rows])


# -- what reaches the user ---------------------------------------------------

@pytest.mark.parametrize("text", [HEADER, ""], ids=["header only", "empty"])
def test_an_empty_dataset_is_one_error_line_and_no_warning(tmp_path, capsys, text):
    path = tmp_path / "d.csv"
    write_text(path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = run_fails(capsys, "train", "--data", path, "--model", "mlp",
                         "--out", tmp_path / "m.ckpt")
    assert str(path) in line
    assert not (tmp_path / "m.ckpt").exists()


def with_bad_byte(path, row, end=b"\n"):
    """Replace the first character of the given 0-based line with 0xff and
    end every line with end."""
    lines = path.read_bytes().split(b"\n")
    lines[row] = b"\xff" + lines[row][1:]
    path.write_bytes(end.join(lines))


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("row", [1, 700])
def test_train_names_the_file_and_line_that_is_not_utf8(tmp_path, capsys, row, end):
    path = tmp_path / "d.csv"
    data.save_csv(small_dataset(n=800), path)
    with_bad_byte(path, row, end)
    line = run_fails(capsys, "train", "--data", path, "--model", "mlp",
                     "--out", tmp_path / "m.ckpt")
    assert line.startswith(f"ltvmcd: error: {path}: line {row + 1}: ")
    assert "can't decode byte 0xff in position 0" in line


def test_a_bad_byte_after_a_multiline_field_is_named_by_its_row(tmp_path):
    """Line numbers count csv rows, as in every other CsvFormatError: the
    quoted id spans two lines of the file but is one row."""
    path = tmp_path / "d.csv"
    path.write_bytes(HEADER.encode() + b'"two\nlines",1,2,3\n\xff0,1,2,3\n')
    with pytest.raises(data.CsvFormatError, match=r": line 3: 'utf-8' codec can't decode byte 0xff"):
        data.load_csv(path)


def test_evaluate_names_the_predictions_line_that_is_not_utf8(tmp_path, capsys):
    ds = small_dataset(n=3)
    data.save_csv(ds, tmp_path / "d.csv")
    assert run("predict", "--model", train_small(tmp_path), "--data", tmp_path / "d.csv",
               "--trials", 2, "--out", tmp_path / "p.csv") == 0
    with_bad_byte(tmp_path / "p.csv", 1)
    line = run_fails(capsys, "evaluate", "--preds", tmp_path / "p.csv", "--data",
                     tmp_path / "d.csv", "--out", tmp_path / "r.json")
    assert line.startswith(f"ltvmcd: error: {tmp_path / 'p.csv'}: line 2: ")
    assert not (tmp_path / "r.json").exists()


def train_small(tmp_path):
    data.save_csv(small_dataset(), tmp_path / "train.csv")
    assert run("train", "--data", tmp_path / "train.csv", "--model", "mlp",
               "--out", tmp_path / "m.ckpt") == 0
    return tmp_path / "m.ckpt"


# -- memory ------------------------------------------------------------------

def test_load_csv_peaks_below_twice_its_arrays_plus_the_ids(tmp_path):
    path = tmp_path / "d.csv"
    data.save_csv(data.generate_synthetic(data.SynthConfig(n=20000, dim=10, master_seed=5)), path)
    tracemalloc.start()
    try:
        ds = data.load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ids_bytes = sys.getsizeof(ds.ids) + sum(map(sys.getsizeof, ds.ids))
    assert peak < 2 * (ds.features.nbytes + ds.labels.nbytes) + ids_bytes
