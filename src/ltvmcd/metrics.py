"""Ranking and calibration metrics for zero-inflated amount prediction:
normalized Gini, top-k% MAPE, top-k% hit-rate, and the accuracy-vs-z
confidence curve.

All order statistics break ties by ascending original index so results
are deterministic and reproducible against brute-force oracles. Sums
that feed reported values go through math.fsum, which is exact, so two
independent implementations agree to the last bit on the same inputs.

Caveat: with constant predictions the Gini tie-break makes the value
depend on input order; callers comparing models should treat a constant
predictor as degenerate rather than read meaning into that number.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .mcd import McdResult, confidence_interval
from .numcore import NumericError, ShapeError, ensure_finite


def _as_vector(values, what):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{what} must be 1-D, got shape {arr.shape}")
    ensure_finite(arr, what)
    return arr


def _check_pair(preds, labels):
    p = _as_vector(preds, "predictions")
    a = _as_vector(labels, "labels")
    if p.shape[0] != a.shape[0]:
        raise ShapeError(f"length mismatch: {p.shape[0]} predictions vs {a.shape[0]} labels")
    return p, a


def _rank_descending(values):
    """Indices sorting values descending, ties broken by ascending index."""
    return np.argsort(-values, kind="stable")


def check_k(k):
    """ValueError unless the top-k fraction k is in (0, 1]."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k must be in (0, 1], got {k}")


def _top_set_size(k, n):
    check_k(k)
    return math.ceil(k * n)


def _raw_gini(labels, by):
    """Lorenz-style gini of labels ordered by the `by` vector, descending."""
    n = labels.shape[0]
    ordered = labels[_rank_descending(by)]
    partial = np.cumsum(ordered)
    total = partial[-1]
    shares = partial / total
    return math.fsum(shares.tolist()) / n - (n + 1) / (2 * n)


def normalized_gini(preds, labels):
    """Gini of labels in prediction order, scaled by the self-ordered gini
    so a perfect ranking scores 1.0.
    """
    p, a = _check_pair(preds, labels)
    n = a.shape[0]
    if n < 2:
        raise ShapeError("gini needs at least 2 samples")
    if np.any(a < 0):
        raise NumericError("labels must be non-negative")
    if not np.any(a > 0):
        raise NumericError("all labels are zero; gini is undefined")
    denom = _raw_gini(a, a)
    if denom == 0.0:
        raise NumericError("labels carry no ranking signal (self-gini is zero)")
    return _raw_gini(a, p) / denom


def top_k_mape(preds_raw, labels_raw, k=0.05):
    """Mean absolute percentage error over the top ceil(k*N) samples by
    true label, the paper's top spenders. Both preds and labels must be in
    raw amount space. A zero label inside the cohort is an error (the
    percentage is undefined there), which signals that k exceeds the
    dataset's positive mass.
    """
    p, a = _check_pair(preds_raw, labels_raw)
    n = a.shape[0]
    m = _top_set_size(k, n)
    chosen = _rank_descending(a)[:m]
    y = a[chosen]
    if np.any(y == 0.0):
        raise NumericError(
            f"top {k:g} cohort ({m} of {n}) contains zero labels; MAPE undefined, lower k"
        )
    terms = np.abs(y - p[chosen]) / y
    return math.fsum(terms.tolist()) / m


def top_k_hit_rate(preds, labels, k=0.05):
    """Overlap between the top ceil(k*N) by prediction and by label,
    as a fraction of the set size.
    """
    p, a = _check_pair(preds, labels)
    n = a.shape[0]
    m = _top_set_size(k, n)
    by_pred = set(_rank_descending(p)[:m].tolist())
    by_label = set(_rank_descending(a)[:m].tolist())
    return len(by_pred & by_label) / m


def default_z_grid():
    """z from 0.0 to 1.0 in steps of 0.05."""
    return np.round(np.arange(21) * 0.05, 12)


def confidence_curve(summaries, labels_model_space, z_grid=None):
    """Fraction of samples whose label falls inside the closed interval
    mean ± z·std/sqrt(T), for each z in the grid.

    summaries is an McdResult or a sequence of PredictionSummary. Labels
    must be in the model's output space (log1p of the raw amount for
    log-MSE models). Returns a list of (z, accuracy) pairs; accuracy is
    non-decreasing in z because the intervals nest.
    """
    if z_grid is None:
        z_grid = default_z_grid()
    zs = _as_vector(z_grid, "z grid")
    if zs.shape[0] == 0:
        raise ShapeError("z grid is empty")
    if np.any(np.diff(zs) <= 0):
        raise ValueError("z grid must be strictly increasing")
    labels = _as_vector(labels_model_space, "labels")
    result = summaries if isinstance(summaries, McdResult) else McdResult.stack(summaries)
    n = len(result)
    if n != labels.shape[0]:
        raise ShapeError(f"{n} summaries vs {labels.shape[0]} labels")
    if n == 0:
        raise ShapeError("no samples")
    curve = []
    for z in zs:
        lo, hi = confidence_interval(result, float(z))
        hits = np.count_nonzero((lo <= labels) & (labels <= hi))
        curve.append((float(z), hits / n))
    return curve


@dataclass
class MetricsReport:
    """Bundle of the three ranking metrics plus the calibration curve.

    confidence_curve is None for models without an uncertainty estimate.
    """

    n: int
    k: float
    normalized_gini: float
    top_k_mape: float
    top_k_hit_rate: float
    confidence_curve: list[tuple[float, float]] | None = field(default=None)

    def __post_init__(self):
        if not -1.0 <= self.normalized_gini <= 1.0:
            raise NumericError(f"gini {self.normalized_gini} outside [-1, 1]")
        if not 0.0 <= self.top_k_hit_rate <= 1.0:
            raise NumericError(f"hit rate {self.top_k_hit_rate} outside [0, 1]")
        if self.confidence_curve is not None:
            zs = [z for z, _ in self.confidence_curve]
            if any(b <= a for a, b in zip(zs, zs[1:])):
                raise ValueError("curve z values must be strictly increasing")
            if any(not 0.0 <= acc <= 1.0 for _, acc in self.confidence_curve):
                raise NumericError("curve accuracy outside [0, 1]")


def build_report(preds_raw, labels_raw, k=0.05, summaries=None,
                 labels_model_space=None, z_grid=None):
    """Compute the full metric bundle on raw-space predictions, with an
    optional confidence curve when MCD summaries (an McdResult or a
    sequence of PredictionSummary) are available.
    """
    p, a = _check_pair(preds_raw, labels_raw)
    curve = None
    if summaries is not None:
        if labels_model_space is None:
            raise ValueError("labels_model_space is required alongside summaries")
        curve = confidence_curve(summaries, labels_model_space, z_grid)
    return MetricsReport(
        n=a.shape[0],
        k=k,
        normalized_gini=normalized_gini(p, a),
        top_k_mape=top_k_mape(p, a, k),
        top_k_hit_rate=top_k_hit_rate(p, a, k),
        confidence_curve=curve,
    )
