"""Synthetic zero-inflated spend data, staged output files, CSV ingestion,
split, and feature standardization.

Labels are raw currency amounts over the prediction horizon; every log
transform lives at the loss/metrics boundary, never in storage. The
generator couples a latent score to both purchase propensity and purchase
amount so that ranking metrics on the result are learnable.
"""

import contextlib
import csv
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .losses import _sigmoid
from .numcore import RngStream, ensure_finite, from_json

# Generator shape constants: propensity slope, amount location offset and
# slope per unit of latent score.
_PROPENSITY_SLOPE = 2.0
_AMOUNT_MU0 = 3.0
_AMOUNT_MU1 = 0.5

_ZERO_VAR_EPS = 1e-12


class CsvFormatError(ValueError):
    """Malformed dataset CSV; message carries the offending line number."""


@dataclass
class Dataset:
    """Feature matrix, raw non-negative labels, and row ids.

    Immutable by convention after construction. norm_mean/norm_std are set
    on the copies returned by standardize().
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

    from_dict = classmethod(from_json)


def latent_score(x: np.ndarray) -> np.ndarray:
    """Nonlinear mix of a small feature subset; drives both the purchase
    indicator and the amount. Column indices wrap for narrow matrices."""
    d = x.shape[1]
    c0, c1, c2, c3 = (x[:, i % d] for i in range(4))
    return 0.8 * c0 + 0.6 * np.tanh(c1 + c2) + 0.3 * c2 * c3


def _calibrate_intercept(score, target_rate):
    """Bisect b so that mean(sigmoid(slope*score + b)) == target_rate."""
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        rate = float(np.mean(_sigmoid(_PROPENSITY_SLOPE * score + mid)))
        if rate < target_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Zero-inflated spend sample: standard-normal features, Bernoulli
    purchase with calibrated positive rate 1 - zero_inflation, lognormal
    positive amounts. Deterministic given the seed."""
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
    amounts = np.exp(_AMOUNT_MU0 + _AMOUNT_MU1 * score + cfg.noise_sigma * noise)
    labels = indicator * amounts
    ids = [f"u{i:07d}" for i in range(cfg.n)]
    return Dataset(ids=ids, features=x, labels=labels)


class StagedOutputs:
    """The (target, temp file) pairs of one staged_outputs() block."""

    def __init__(self):
        self.staged = []

    @property
    def targets(self):
        return [target for target, _ in self.staged]

    def path(self, target):
        """Reserve a temp file beside target, with the mode open(target, "w")
        gives a new file under the current umask, and return its name."""
        umask = os.umask(0o022)
        os.umask(umask)
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)), prefix=".ltvmcd-")
        except OSError as exc:  # name the target, not the temp file
            raise type(exc)(exc.errno, exc.strerror, os.fspath(target)) from None
        self.staged.append((target, tmp))
        os.fchmod(fd, 0o666 & ~umask)  # the temp file starts at 0600
        os.close(fd)
        return tmp


@contextlib.contextmanager
def staged_outputs():
    """Yield a StagedOutputs. When the block completes, each temp file
    replaces its target in staging order, one rename each; if it raises,
    every temp file is removed and no target is touched."""
    out = StagedOutputs()
    try:
        yield out
        for target, tmp in out.staged:
            os.replace(tmp, target)
    except BaseException:  # a temp file already renamed is gone
        for _, tmp in out.staged:
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
    """Write the header and rows atomically as CSV with Unix line ends."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(data: Dataset, path):
    """Write id,f0..f{d-1},label rows atomically, streaming row by row.
    Floats use repr, which round-trips doubles exactly, so save -> load is
    lossless."""
    header = ["id"] + [f"f{j}" for j in range(data.dim)] + ["label"]
    rows = (
        [data.ids[i], *(repr(float(v)) for v in data.features[i]), repr(float(data.labels[i]))]
        for i in range(data.n)
    )
    write_csv(path, header, rows)


def csv_rows(path):
    """Yield (line number, fields) for each row of a CSV file, read as UTF-8
    with newline="" as write_csv writes it. A row the csv module cannot
    parse (say, a field over its size limit) raises CsvFormatError naming
    the line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lineno = 0
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                yield lineno, row
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: line {lineno + 1}: {exc}") from None


def load_csv(path) -> Dataset:
    rows = csv_rows(path)
    try:
        _, header = next(rows)
    except StopIteration:
        raise CsvFormatError(f"{path}: empty file") from None
    d = len(header) - 2
    expected = ["id"] + [f"f{j}" for j in range(d)] + ["label"]
    if d < 1 or header != expected:
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

    Zero-variance features pass through unscaled and uncentered. Returns
    new datasets carrying the fitted parameters."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    constant = std < _ZERO_VAR_EPS
    mean = np.where(constant, 0.0, mean)
    std = np.where(constant, 1.0, std)
    out = []
    for ds in (train, test):
        out.append(
            Dataset(
                ids=list(ds.ids),
                labels=ds.labels.copy(),
                features=apply_standardization(ds.features, mean, std),
                norm_mean=mean.copy(),
                norm_std=std.copy(),
            )
        )
    return out[0], out[1]


def apply_standardization(features, mean, std):
    return (np.asarray(features, dtype=np.float64) - mean) / std
