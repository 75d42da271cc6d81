"""Synthetic zero-inflated spend data, staged output files, CSV ingestion,
split, and feature standardization.

Every command standardizes in place with standardize_in_place: train its
fresh train split, compare also its test split, predict and sweep-trials
the dataset they loaded. standardize runs it on copies, for library use.

Labels are raw currency amounts over the prediction horizon; every log
transform lives at the loss/metrics boundary, never in storage. The
generator couples a latent score to both purchase propensity and purchase
amount so that ranking metrics on the result are learnable.

Every CSV file the package writes goes through write_csv. Each caller
formats its own fields as text (floats by repr), and write_csv only
quotes and joins them, by one rule: a field holding , " \r or \n is
quoted, with its quotes doubled; a row whose one field is empty is
written ""; every line ends in "\n". These are the bytes of the csv
module's writer with lineterminator "\n", except that a field holding a
bare "\r" is quoted too, as it quotes one holding "\n", so that the file
reads back. load_csv parses a plain file (no quoting, "\n" line ends,
the expected field count on every line) with np.loadtxt's C parser, and
reads any other file again with the csv module, row by row, so the
values read and every CsvFormatError are those of the csv module alone.
"""

import contextlib
import csv
import errno
import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .losses import _sigmoid
from .numcore import NumericError, RngStream, ensure_finite

# Generator shape constants: propensity slope, amount location offset and
# slope per unit of latent score.
_PROPENSITY_SLOPE = 2.0
_AMOUNT_MU0 = 3.0
_AMOUNT_MU1 = 0.5

_ZERO_VAR_EPS = 1e-12

# Rows per block: load_csv packs _BLOCK_ROWS rows at a time, and write_csv
# writes _SAVE_ROWS, which bounds the rows and text it holds at once. A block
# holds its rows as strs: at 1024 rows, save_csv of 20k x 10 rows peaked at
# 2.27 MB, above the 1.6 MB of the feature matrix; at 512, 1.14 MB.
_BLOCK_ROWS = 4096
_SAVE_ROWS = 512


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message carries the offending line number."""


@dataclass
class Dataset:
    """Feature matrix, raw non-negative labels, and row ids.

    Immutable by convention after construction, except that
    standardize_in_place() overwrites the features of a dataset nothing
    else holds. norm_mean/norm_std are set by standardize_in_place() and on
    the copies standardize() returns.
    """

    ids: list
    features: np.ndarray
    labels: np.ndarray
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.ids) != self.features.shape[0] or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("ids, features, and labels must have equal length")
        ensure_finite(self.features, "features")
        ensure_finite(self.labels, "labels")
        if (self.labels < 0).any():
            raise ValueError("labels must be non-negative")

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]


@dataclass
class SynthConfig:
    n: int
    dim: int
    zero_inflation: float = 0.95
    noise_sigma: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 <= self.zero_inflation <= 1.0:
            raise ValueError("zero_inflation must be in [0, 1]")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be > 0")


def latent_score(x: np.ndarray) -> np.ndarray:
    """Nonlinear mix of a small feature subset; drives both the purchase
    indicator and the amount. Column indices wrap for narrow matrices."""
    d = x.shape[1]
    c0, c1, c2, c3 = (x[:, i % d] for i in range(4))
    return 0.8 * c0 + 0.6 * np.tanh(c1 + c2) + 0.3 * c2 * c3


def _calibrate_intercept(score, target_rate):
    """Bisect b so that mean(sigmoid(slope*score + b)) == target_rate, for
    at most 200 steps. A step that leaves (lo, hi) unchanged is a fixed
    point, since the next step depends on (lo, hi) alone, so the loop
    stops there with the interval the full 200 steps would reach."""
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = float(np.mean(_sigmoid(_PROPENSITY_SLOPE * score + mid)))
        step = (mid, hi) if rate < target_rate else (lo, mid)
        if step == (lo, hi):
            break
        lo, hi = step
    return 0.5 * (lo + hi)


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Zero-inflated spend sample: standard-normal features, Bernoulli
    purchase with calibrated positive rate 1 - zero_inflation, lognormal
    positive amounts. Deterministic given the seed. A noise_sigma so large
    that an amount overflows a double is a ValueError naming it."""
    root = RngStream(cfg.master_seed, "synth")
    x = root.child("features").normal(cfg.n * cfg.dim).reshape(cfg.n, cfg.dim)
    score = latent_score(x)
    rate = 1.0 - cfg.zero_inflation
    if rate <= 0.0:
        indicator = np.zeros(cfg.n)
    elif rate >= 1.0:
        indicator = np.ones(cfg.n)
    else:
        b = _calibrate_intercept(score, rate)
        p = _sigmoid(_PROPENSITY_SLOPE * score + b)
        indicator = (root.child("purchase").uniform(cfg.n) < p).astype(np.float64)
    noise = root.child("amount").normal(cfg.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked next
        amounts = np.exp(_AMOUNT_MU0 + _AMOUNT_MU1 * score + cfg.noise_sigma * noise)
    if not np.isfinite(amounts).all():
        raise ValueError(f"noise_sigma {cfg.noise_sigma!r} is so large that a spend amount overflows")
    labels = indicator * amounts
    ids = [f"u{i:07d}" for i in range(cfg.n)]
    return Dataset(ids=ids, features=x, labels=labels)


class StagedOutputs:
    """The (target, resolved target, temp file) triples of one
    staged_outputs() block."""

    def __init__(self):
        self.staged = []

    @property
    def targets(self):
        return [target for target, _, _ in self.staged]

    def path(self, target):
        """Reserve a temp file beside the file target names once links are
        followed, with the mode open(target, "w") gives a new file under the
        current umask, and return its name. The OSError open(target, "w")
        raises if target is empty, ends in a separator or is a directory;
        ValueError if it is an existing file that is not a regular one, or
        if an earlier target names the same file."""
        name = os.fspath(target)
        if not name or name.endswith(os.sep) or os.path.isdir(name):
            code = errno.EISDIR if name else errno.ENOENT
            raise OSError(code, os.strerror(code), name)
        real = os.path.realpath(name)
        if os.path.lexists(real) and not os.path.isfile(real):
            raise ValueError(f"{name}: not a regular file")
        if real in (resolved for _, resolved, _ in self.staged):
            raise ValueError(f"{name}: two outputs of this command name this file")
        umask = os.umask(0o022)
        os.umask(umask)
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".ltvmcd-")
        except OSError as exc:  # name the target, not the temp file
            raise type(exc)(exc.errno, exc.strerror, name) from None
        self.staged.append((target, real, tmp))
        os.fchmod(fd, 0o666 & ~umask)  # the temp file starts at 0600
        os.close(fd)
        return tmp


@contextlib.contextmanager
def staged_outputs():
    """Yield a StagedOutputs. When the block completes, each temp file
    replaces its resolved target in staging order, one rename each, so a
    link stays a link to the new bytes; if it raises, every temp file is
    removed and no target is touched."""
    out = StagedOutputs()
    try:
        yield out
        for _, real, tmp in out.staged:
            os.replace(tmp, real)
    except BaseException:  # a temp file already renamed is gone
        for _, _, tmp in out.staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


@contextlib.contextmanager
def atomic_open(path):
    """Yield a UTF-8 text handle (newline="") whose content replaces path
    only when the block completes, never partially."""
    with staged_outputs() as out, open(out.path(path), "w", encoding="utf-8", newline="") as fh:
        yield fh


def write_csv(path, header, rows):
    """Write the header and rows (each a sequence of str fields) atomically
    as CSV by the rule above, one block of _SAVE_ROWS rows at a time. A
    field that is not a str raises TypeError."""
    rows = iter(rows)
    with atomic_open(path) as fh:
        fh.write(_csv_lines([header]))
        while block := list(itertools.islice(rows, _SAVE_ROWS)):
            fh.write(_csv_lines(block))


def _csv_lines(block):
    """The CSV lines of a block of rows of strs. A block none of whose
    fields holds , " \r or \n is joined as it is; any other goes field by
    field through _csv_field."""
    text = "".join(itertools.chain.from_iterable(block))
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        block = [[_csv_field(value) for value in row] for row in block]
    return "".join([(",".join(row) or ('""' if row else "")) + "\n" for row in block])


def _csv_field(text):
    """One str field as the rule above writes it."""
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def save_csv(data: Dataset, path):
    """Write id,f0..f{d-1},label rows through write_csv. Ids use str and
    floats repr, which round-trips doubles exactly, so save -> load is
    lossless. Rows are formatted from np.column_stack([features,
    labels]).tolist() one block of _SAVE_ROWS rows at a time, so the file
    is never held in memory whole."""
    def rows():
        for s in range(0, data.n, _SAVE_ROWS):
            e = s + _SAVE_ROWS
            values = np.column_stack([data.features[s:e], data.labels[s:e]]).tolist()
            yield from ([str(row_id), *map(repr, row)] for row_id, row in zip(data.ids[s:e], values))

    write_csv(path, _header(data.dim), rows())


def _header(d):
    return ["id", *(f"f{j}" for j in range(d)), "label"]


def csv_rows(path):
    """Yield (line number, fields) for each row of a CSV file, read as UTF-8
    with newline="" as write_csv writes it. A row the csv module cannot
    parse (say, a field over its size limit) or that holds bytes that are
    not UTF-8 raises CsvFormatError naming the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        lineno = 0
        try:
            for lineno, row in enumerate(csv.reader(_utf8_lines(fh)), start=1):
                yield lineno, row
        except (csv.Error, UnicodeDecodeError) as exc:
            raise CsvFormatError(f"{path}: line {lineno + 1}: {exc}") from None


def _utf8_lines(fh):
    """Yield the lines of fh, opened with errors="surrogateescape"; raise
    the UnicodeDecodeError of the first line that holds bytes that are not
    UTF-8. The csv reader asks for a line only to finish the row after the
    last one it gave, so that row is the one to name."""
    for line in fh:
        if not line.isascii():
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        yield line


def load_csv(path) -> Dataset:
    """Read an id,f0..f{d-1},label file into a Dataset.

    A plain file goes through np.loadtxt's C parser: the exact header, then
    lines that each end in "\n", hold d+1 commas and no quote, CR or
    \x1c-\x1f, and fit csv.field_size_limit(), with finite values and
    non-negative labels. Anything else, or anything loadtxt rejects, is
    read again by csv_rows, which gives the result or the CsvFormatError
    naming the line. Both give the same ids and bit-identical, C-contiguous
    features and labels."""
    data = _load_plain(path)
    return _load_rows(path) if data is None else data


class _NotPlain(Exception):
    """A line that _load_plain leaves to the csv_rows reader."""


def _load_plain(path):
    """The Dataset of a plain file (see load_csv), or None. Lines stream
    from the file into np.loadtxt; the file is never held in memory."""
    if not os.path.isfile(path):  # a pipe could not be read again by the fallback
        return None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        ids = []
        try:
            header = fh.readline()
            d = header.count(",") - 1
            if d < 1 or header != ",".join(_header(d)) + "\n":
                return None
            table = np.loadtxt(_plain_values(fh, d, ids), delimiter=",", comments=None,
                               ndmin=2, dtype=np.float64)
        except (ValueError, _NotPlain):  # UnicodeDecodeError is a ValueError
            return None
    if table.shape != (len(ids), d + 1) or not np.isfinite(table).all() or (table[:, d] < 0).any():
        return None
    features, labels = _columns(table)
    return Dataset(ids=ids, features=features, labels=labels)


def _plain_values(fh, d, ids):
    """Yield each data line of fh after its id, appending the id to ids.
    Raise _NotPlain at a line that is not plain or when there is none
    (loadtxt warns on empty input)."""
    limit = csv.field_size_limit()
    for line in fh:
        # '"' and "\r" are csv syntax; np.loadtxt strips \x1c-\x1f around a
        # number as whitespace, where float() rejects them
        if (line.count(",") != d + 1 or line[-1] != "\n" or len(line) > limit
                or '"' in line or "\r" in line or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line):
            raise _NotPlain
        row_id, _, values = line.partition(",")
        ids.append(row_id)
        yield values
    if not ids:
        raise _NotPlain


def _columns(table):
    """Split an (n, d+1) table into C-contiguous features and labels, the
    layout the row reader gives, without a second n x d buffer: the labels
    are copied out, then the feature rows are packed to the front of the
    table's own buffer, block by block (numpy buffers an overlapping block)."""
    n, d = table.shape[0], table.shape[1] - 1
    labels = table[:, d].copy()
    features = table.reshape(-1)[: n * d].reshape(n, d)
    for s in range(0, n, _BLOCK_ROWS):
        features[s : s + _BLOCK_ROWS] = table[s : s + _BLOCK_ROWS, :d]
    return features, labels


def _load_rows(path) -> Dataset:
    """load_csv through csv_rows, one row at a time."""
    rows = csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    d = len(header) - 2
    if d < 1 or header != _header(d):
        raise CsvFormatError(f"{path}: line 1: bad header {header!r}")
    ids = []
    feats = []
    labels = []
    for lineno, row in rows:
        if len(row) != d + 2:
            raise CsvFormatError(f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as e:
            raise CsvFormatError(f"{path}: line {lineno}: {e}") from None
        if not all(math.isfinite(v) for v in values):
            raise CsvFormatError(f"{path}: line {lineno}: non-finite value")
        if values[-1] < 0:
            raise CsvFormatError(f"{path}: line {lineno}: negative label {values[-1]}")
        ids.append(row[0])
        feats.append(values[:-1])
        labels.append(values[-1])
    if not ids:
        raise CsvFormatError(f"{path}: no data rows")
    return Dataset(ids=ids, features=np.array(feats), labels=np.array(labels))


def split(data: Dataset, train_frac: float, seed: int):
    """Disjoint, exhaustive, seed-deterministic (train, test) split."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    perm = RngStream(seed, "split").permutation(data.n)
    n_train = int(round(data.n * train_frac))
    if n_train < 1 or n_train >= data.n:
        raise ValueError(f"degenerate split sizes ({n_train}, {data.n - n_train})")
    return _take(data, perm[:n_train]), _take(data, perm[n_train:])


def _take(data: Dataset, idx):
    return Dataset(
        ids=[data.ids[i] for i in idx],
        features=data.features[idx],
        labels=data.labels[idx],
    )


def standardize(train: Dataset, test: Dataset):
    """Fit per-feature mean/std on the TRAIN split only and apply to both.

    Returns new datasets carrying the fitted parameters and leaves both
    inputs as they are: each copy is standardized by standardize_in_place."""
    train, test = (Dataset(list(ds.ids), ds.features.copy(), ds.labels.copy()) for ds in (train, test))
    standardize_in_place(train)
    standardize_in_place(test, train.norm_mean, train.norm_std)
    return train, test


def standardize_in_place(data: Dataset, mean=None, std=None):
    """Standardize data.features in place, x -= mean; x /= std (the IEEE
    operations of (x - mean) / std on a copy), with mean and std by default
    fitted per feature, and set them as data.norm_mean/norm_std. Fitted
    zero-variance features pass through unscaled and uncentered. An
    overflowing fitted mean or std, or the first standardized value that is
    not finite, is a ValueError naming its feature (and the value's id)."""
    if mean is None:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = data.features.mean(axis=0)
            std = data.features.std(axis=0)
        bad = ~(np.isfinite(mean) & np.isfinite(std))
        if bad.any():
            raise ValueError(f"feature f{int(bad.argmax())}: its train-split mean or std overflows")
        constant = std < _ZERO_VAR_EPS
        mean = np.where(constant, 0.0, mean)
        std = np.where(constant, 1.0, std)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(np.subtract(data.features, mean, out=data.features), std, out=data.features)
    try:
        ensure_finite(data.features, "standardized features")
    except NumericError:
        i, j = np.argwhere(~np.isfinite(data.features))[0]
        raise ValueError(f"id {data.ids[i]!r}: feature f{j} is not finite once standardized") from None
    data.norm_mean, data.norm_std = mean, std
