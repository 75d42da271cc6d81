"""Monte Carlo dropout inference: repeated stochastic forward passes and
per-sample summary statistics.

Trial j draws its dropout masks from a stream labeled "mcd/{j}" under the
run's master seed, so any trial can be replayed in isolation. Trials run
outermost; every batch inside one trial re-derives the same stream and
therefore sees the same masks (one mask per layer per trial, shared
across all samples), regardless of inference batching. Trial j's stream
does not depend on T either, so the first t trials of a run at T >= t are
the trials of the run at T = t: McdResult.first(t) reads that smaller run
off a kept trial matrix, and sweep-trials pays for max(grid) trials per
rep, not for the sum of its grid.

The result holds, as columns, the mean and sample standard deviation of
each sample's trial vector in the model's output space. For log-MSE
models that is log1p space; conversion to raw amounts happens at the
metrics boundary. ZILN heads are reduced to their expected raw amount
per trial.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import losses
from .numcore import RngStream, ShapeError


@dataclass
class McdConfig:
    trials: int
    master_seed: int = 0
    batch_size: int = 0  # rows per inference pass; 0 means the whole dataset

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")


@dataclass
class PredictionSummary:
    """One sample's MCD output: mean and spread of its T trial values."""

    sample_id: str
    mean: float
    std: float  # sample std (T-1 denominator); 0 when T == 1
    n_trials: int
    trials: np.ndarray | None = None  # retained only on request


@dataclass
class McdResult:
    """MCD output for n samples as columns: ids (list), mean and std
    (float64, shape (n,)), n_trials (int64, shape (n,)), and the (n, T)
    trial matrix when kept; repeated marks a kept matrix whose columns all
    copy the one eval pass of a network without active dropout. r[i] is
    sample i's PredictionSummary."""

    ids: list
    mean: np.ndarray
    std: np.ndarray
    n_trials: np.ndarray
    trials: np.ndarray | None = None
    repeated: bool = False

    @classmethod
    def stack(cls, summaries):
        """One result from a sequence of PredictionSummary."""
        return cls(
            ids=[s.sample_id for s in summaries],
            mean=np.array([s.mean for s in summaries], dtype=np.float64),
            std=np.array([s.std for s in summaries], dtype=np.float64),
            n_trials=np.array([s.n_trials for s in summaries], dtype=np.int64),
        )

    def first(self, t):
        """The result the same run gives at T = t <= T: the moments of the
        first t trials, as mcd_predict computes them. Needs the trial
        matrix (keep_trials=True)."""
        if self.trials is None:
            raise ValueError("first() needs a result whose trial matrix was kept")
        if not 1 <= t <= self.trials.shape[1]:
            raise ValueError(f"t must be in [1, {self.trials.shape[1]}], got {t}")
        passes = self.trials[:, : 1 if self.repeated else t]
        return _summarize(list(self.ids), np.ascontiguousarray(passes), t, keep_trials=True)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        return PredictionSummary(
            sample_id=self.ids[i],
            mean=float(self.mean[i]),
            std=float(self.std[i]),
            n_trials=int(self.n_trials[i]),
            trials=None if self.trials is None else self.trials[i].copy(),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _scalarize(kind, out):
    if kind == "log_mse":
        return out[:, 0]
    if kind == "ziln":
        return losses.ziln_predict(out)
    raise ValueError(f"unknown loss kind {kind!r}")


def mcd_predict(net, data, cfg: McdConfig, loss_kind="log_mse", keep_trials=False):
    """Run T mc_sample forward passes over the dataset, then per-sample
    mean and sample std of the resulting trial vectors, aggregated in
    ascending trial order. Returns an McdResult.

    A network without active dropout short-circuits to one eval pass per
    chunk: every trial would return the identical output, whose exact
    mean is that output itself, with zero spread. Deterministic given
    (model, data, seed, T).
    """
    x = data.features
    if x.shape[1] != net.input_dim:
        raise ShapeError(f"feature width {x.shape[1]} != network input {net.input_dim}")
    n = x.shape[0]
    t = cfg.trials
    step = cfg.batch_size if cfg.batch_size > 0 else n
    stochastic = getattr(net, "stochastic", lambda: True)()
    mode, passes = ("mc_sample", t) if stochastic else ("eval", 1)
    trials = np.empty((n, passes))
    for j in range(passes):
        for start in range(0, n, step):
            # fresh stream per chunk: replays the trial's mask sequence
            rng = RngStream(cfg.master_seed, f"mcd/{j}") if stochastic else None
            out, _ = net.forward(x[start : start + step], mode, rng)
            trials[start : start + step, j] = _scalarize(loss_kind, out)
    return _summarize(list(data.ids), trials, t, keep_trials)


def _summarize(ids, passes, t, keep_trials):
    """The McdResult of T = t trials from the C-contiguous (n, k) matrix of
    the passes that ran: k == t, or k == 1 for a network without active
    dropout, whose one pass stands for every trial."""
    n, k = passes.shape
    means = passes.mean(axis=1)
    if k > 1:
        devs = passes - means[:, None]
        stds = np.sqrt((devs * devs).sum(axis=1) / (k - 1))
    else:
        stds = np.zeros(n)
    trials = None
    if keep_trials:
        trials = passes if k == t else np.repeat(passes, t, axis=1)
    return McdResult(ids, means, stds, np.full(n, t, dtype=np.int64), trials,
                     repeated=k < t)


def confidence_interval(summary, z, quantile=False):
    """Closed interval mean ± z·std/sqrt(T) of one PredictionSummary, or
    elementwise arrays (lo, hi) of a whole McdResult.

    By default z is the literal multiplier in [0, 1]. With quantile=True,
    z is instead read as a central coverage level and mapped through the
    standard normal quantile function.
    """
    if quantile:
        if not 0.0 <= z < 1.0:
            raise ValueError("coverage level must be in [0, 1) in quantile mode")
        mult = NormalDist().inv_cdf(0.5 * (1.0 + z))
    else:
        if not 0.0 <= z <= 1.0:
            raise ValueError("confidence threshold z must be in [0, 1]")
        mult = z
    half = mult * summary.std / np.sqrt(summary.n_trials)
    return summary.mean - half, summary.mean + half
