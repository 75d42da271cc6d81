"""Training objectives for zero-inflated spend regression.

Two heads are supported:

* log-MSE: squared error against log1p of the raw amount (width-1 output).
  log1p rather than log because the labels carry a point mass at zero.
* ZILN: zero-inflated lognormal (width-3 output: purchase logit, location
  mu, raw scale s with sigma = softplus(s)). Point prediction is the
  expected amount p * exp(mu + sigma^2 / 2).

All functions are pure; gradients are analytic and returned alongside the
scalar loss. HEAD_WIDTHS, loss_fn and point_fn hold every fact of a kind.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numcore import NumericError, ShapeError, ensure_finite

SIGMA_FLOOR = 1e-6  # guards the lognormal logpdf against division by zero
HEAD_WIDTHS = {"log_mse": 1, "ziln": 3}  # every loss kind, with its head width

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class LossValue:
    value: float
    grad: np.ndarray  # d(loss)/d(output), same shape as the network output


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x):
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def _check_labels(labels):
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    ensure_finite(labels, "labels")
    if (labels < 0).any():
        raise ValueError("labels must be non-negative amounts")
    return labels


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the finite checks
def log_mse(output, labels_raw) -> LossValue:
    """Mean squared error between the width-1 output and log1p(label)."""
    output = np.asarray(output, dtype=np.float64)
    labels = _check_labels(labels_raw)
    if output.ndim != 2 or output.shape[1] != 1:
        raise ShapeError(f"log_mse expects a (B, 1) output, got {output.shape}")
    if output.shape[0] != labels.shape[0]:
        raise ShapeError("output and label counts differ")
    b = output.shape[0]
    diff = output[:, 0] - np.log1p(labels)
    value = float(np.mean(diff * diff))
    grad = (2.0 / b) * diff[:, None]
    if not math.isfinite(value):
        raise NumericError("log_mse loss is not finite")
    ensure_finite(grad, "log_mse gradient")
    return LossValue(value, grad)


def _ziln_parts(head):
    head = np.asarray(head, dtype=np.float64)
    if head.ndim != 2 or head.shape[1] != 3:
        raise ShapeError(f"ZILN head must be (B, 3), got {head.shape}")
    logit, mu, s = head[:, 0], head[:, 1], head[:, 2]
    sigma_raw = _softplus(s)
    sigma = np.maximum(sigma_raw, SIGMA_FLOOR)
    return logit, mu, s, sigma, sigma_raw >= SIGMA_FLOOR


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the finite checks
def ziln_loss(head, labels_raw) -> LossValue:
    """Negative log-likelihood of the zero-inflated lognormal model.

    Zero labels contribute -log(1 - p); positive labels contribute
    -log(p) minus the LogNormal(mu, sigma) log-density at the label.
    """
    logit, mu, s, sigma, sigma_free = _ziln_parts(head)
    labels = _check_labels(labels_raw)
    b = labels.shape[0]
    if logit.shape[0] != b:
        raise ShapeError("head and label counts differ")
    pos = labels > 0
    per = np.where(pos, _softplus(-logit), _softplus(logit))
    grad = np.zeros((b, 3))
    grad[:, 0] = np.where(pos, _sigmoid(logit) - 1.0, _sigmoid(logit))
    if pos.any():
        y = labels[pos]
        q = np.log(y) - mu[pos]
        sig = sigma[pos]
        per[pos] += np.log(y) + np.log(sig) + _HALF_LOG_2PI + q * q / (2.0 * sig * sig)
        grad[pos, 1] = -q / (sig * sig)
        # d(sigma)/d(s) = sigmoid(s), zeroed where the sigma floor is active
        dsig = (1.0 / sig - q * q / sig**3) * _sigmoid(s[pos]) * sigma_free[pos]
        grad[pos, 2] = dsig
    value = float(np.mean(per))
    grad /= b
    if not math.isfinite(value):
        raise NumericError("ziln loss is not finite")
    ensure_finite(grad, "ziln gradient")
    return LossValue(value, grad)


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the finite check
def ziln_predict(head) -> np.ndarray:
    """Expected raw amount per sample: sigmoid(logit) * exp(mu + sigma^2/2)."""
    logit, mu, _, sigma, _ = _ziln_parts(head)
    out = _sigmoid(logit) * np.exp(mu + 0.5 * sigma * sigma)
    ensure_finite(out, "ziln prediction")
    return out


def head_width(kind: str) -> int:
    """The head width of a loss kind; ValueError for an unknown kind."""
    if not (isinstance(kind, str) and kind in HEAD_WIDTHS):
        raise ValueError(f"unknown loss kind {kind!r}")
    return HEAD_WIDTHS[kind]


def loss_fn(kind: str):
    """The kind's loss function, looked up at the call, so a patched one is returned."""
    head_width(kind)
    return log_mse if kind == "log_mse" else ziln_loss


def point_fn(kind: str):
    """The map of a kind's (B, width) head to (B,) point predictions in the
    model's output space: log1p space for log_mse, raw amounts for ziln."""
    head_width(kind)
    return (lambda head: head[:, 0]) if kind == "log_mse" else ziln_predict
