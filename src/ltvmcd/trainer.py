"""Mini-batch training loop and the finite-difference gradient checker."""

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .mcd import _blocks
from .numcore import AdamState, RngStream, ShapeError, adam_step


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 512
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    master_seed: int = 0
    patience: int | None = 5  # None disables early stopping
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate >= 0.0:  # 0 freezes the parameters
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 or None")


def train(net, data, cfg: TrainConfig, loss_kind="log_mse"):
    """Adam mini-batch training of a loss_kind head ("log_mse" or "ziln",
    see losses) with a held-out validation slice.

    All randomness comes from streams of cfg.master_seed with fixed
    labels: "train/val_split" picks the validation rows,
    "train/shuffle/{epoch}" orders each epoch's batches, and
    "train/dropout" feeds the dropout layers. Dropout runs in train
    mode; validation loss is computed in eval mode. With patience set,
    stops after that many epochs without validation improvement and
    restores the best-epoch parameters. Deterministic given the seed.
    Each batch is gathered from data as it runs, and the validation pass
    runs in mcd._blocks blocks, so neither split is ever copied whole.

    Returns (net, history) where history is a list of
    (epoch, train_loss, val_loss) tuples.
    """
    n = data.features.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    if data.features.shape[1] != net.input_dim:
        raise ShapeError(f"feature width {data.features.shape[1]} != network input {net.input_dim}")
    width = losses.head_width(loss_kind)
    if net.output_dim != width:
        raise ShapeError(f"{loss_kind} needs a width-{width} head, network has {net.output_dim}")
    fn = losses.loss_fn(loss_kind)

    perm = RngStream(cfg.master_seed, "train/val_split").permutation(n)
    n_val = min(max(int(round(n * cfg.val_fraction)), 1), n - 1)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    y_va = data.labels[val_idx]

    params = net.params()
    state = AdamState.for_params(params)
    drop_rng = RngStream(cfg.master_seed, "train/dropout")

    history = []
    best_val = math.inf
    best_params = None
    stale = 0
    for epoch in range(cfg.epochs):
        order = RngStream(cfg.master_seed, f"train/shuffle/{epoch}").permutation(len(train_idx))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            rows = train_idx[order[start : start + cfg.batch_size]]
            out, tape = net.forward(data.features[rows], "train", drop_rng)
            lv = fn(out, data.labels[rows])  # raises NumericError on a non-finite loss
            grads, _ = net.backward(tape, lv.grad)
            adam_step(state, params, grads, cfg)
            total += lv.value * len(rows)
        train_loss = total / len(order)
        # in MCD's blocks: the bits of one whole-batch pass
        val_out = np.concatenate([net.forward(data.features[val_idx[a:b]], "eval")[0]
                                  for a, b in _blocks(n_val, 0)])
        val_loss = fn(val_out, y_va).value
        history.append((epoch, train_loss, val_loss))
        if cfg.patience is not None:
            if val_loss < best_val:
                best_val = val_loss
                best_params = [p.copy() for p in params]
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if best_params is not None:
        for p, snap in zip(params, best_params):
            p[...] = snap
    return net, history


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    tol: float
    passed: bool
    per_param: dict


GRAD_CHECK_ROWS = 4  # rows of grad_check's random batch
GRAD_CHECK_STEP = 1e-5  # grad_check's central-difference step


def grad_check(net, loss_kind="log_mse", tol=1e-4, seed=99):
    """Compare analytic parameter gradients against central finite
    differences of the loss on a random batch of GRAD_CHECK_ROWS rows.

    Every forward pass replays the same labeled mask stream, so dropout
    layers are a fixed deterministic function during the check. Relative
    error uses a 1e-6 floor in the denominator so that true-zero gradients
    compare on finite-difference noise rather than 0/0.
    """
    x_rng = RngStream(seed, "gradcheck/x")
    x = x_rng.normal(GRAD_CHECK_ROWS * net.input_dim).reshape(GRAD_CHECK_ROWS, net.input_dim)
    # half zero labels, half lognormal positives: exercises both ZILN branches
    amounts = np.exp(0.5 * x_rng.normal(GRAD_CHECK_ROWS))
    zero = x_rng.uniform(GRAD_CHECK_ROWS) < 0.5
    labels = np.where(zero, 0.0, amounts)
    if not zero.any():
        labels[0] = 0.0
    if zero.all():
        labels[-1] = amounts[-1]
    fn = losses.loss_fn(loss_kind)

    def run_loss():
        out, _ = net.forward(x, "train", RngStream(seed, "gradcheck/mask"))
        return fn(out, labels)

    out, tape = net.forward(x, "train", RngStream(seed, "gradcheck/mask"))
    lv = fn(out, labels)
    analytic, _ = net.backward(tape, lv.grad)

    per_param = {}
    worst = (0.0, "")
    for (name, p), a_grad in zip(net.named_params(), analytic):
        worst_here = 0.0
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + GRAD_CHECK_STEP
            up = run_loss().value
            p[idx] = orig - GRAD_CHECK_STEP
            down = run_loss().value
            p[idx] = orig
            fd = (up - down) / (2.0 * GRAD_CHECK_STEP)
            a = a_grad[idx]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            worst_here = max(worst_here, rel)
        per_param[name] = worst_here
        if worst_here > worst[0]:
            worst = (worst_here, name)
    return GradCheckReport(
        max_rel_err=worst[0],
        worst_param=worst[1],
        tol=tol,
        passed=worst[0] < tol,
        per_param=per_param,
    )
