"""The columnar MCD result: r[i] agrees with the columns, the confidence
curve computed once per z over a whole McdResult equals the per-sample
definition bit for bit, and predict writes its rows from the columns."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmcd import McdResult, cli, data, metrics, nn
from ltvmcd.mcd import McdConfig, PredictionSummary, confidence_interval, mcd_predict
from test_contracts import small_dataset

Z_GRID = [float(z) for z in metrics.default_z_grid()]


def per_sample_curve(summaries, labels):
    """The curve as one interval per sample and z: mean ± z·std/sqrt(T)."""
    curve = []
    for z in Z_GRID:
        hits = 0
        for s, y in zip(summaries, labels):
            half = z * s.std / math.sqrt(s.n_trials)
            if s.mean - half <= y <= s.mean + half:
                hits += 1
        curve.append((z, hits / len(summaries)))
    return curve


@st.composite
def summaries_and_labels(draw):
    """Samples with zero and non-zero spreads; labels free, at the mean, or
    exactly on an interval end at one of the grid's z values."""
    n = draw(st.integers(1, 12))
    summaries, labels = [], []
    for i in range(n):
        mean = draw(st.floats(-50.0, 50.0))
        std = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
        t = draw(st.integers(1, 1000))
        z = draw(st.sampled_from(Z_GRID))
        half = z * std / math.sqrt(t)
        summaries.append(PredictionSummary(f"u{i}", mean, std, t))
        labels.append(draw(st.one_of(st.sampled_from([mean - half, mean + half, mean]),
                                     st.floats(-60.0, 60.0))))
    return summaries, labels


@settings(max_examples=300, deadline=None)
@given(summaries_and_labels())
def test_columnar_curve_equals_per_sample_loop(case):
    summaries, labels = case
    result = McdResult.stack(summaries)
    expected = per_sample_curve(summaries, labels)
    assert metrics.confidence_curve(result, labels) == expected
    assert metrics.confidence_curve(summaries, labels) == expected
    for z in (0.0, 0.35, 1.0):
        lo, hi = confidence_interval(result, z)
        for i, s in enumerate(summaries):
            assert (lo[i], hi[i]) == confidence_interval(s, z)


def test_rows_match_columns():
    ds = small_dataset(n=11)
    net = nn.build_mlp(ds.dim, [8], 0.3, seed=2)
    for keep in (False, True):
        r = mcd_predict(net, ds, McdConfig(trials=5, master_seed=3), keep_trials=keep)
        assert isinstance(r, McdResult) and len(r) == ds.n
        assert r.ids == ds.ids
        assert r.mean.dtype == np.float64 and r.mean.shape == (ds.n,)
        assert r.std.dtype == np.float64 and r.std.shape == (ds.n,)
        assert r.n_trials.dtype == np.int64 and r.n_trials.tolist() == [5] * ds.n
        assert (r.trials is not None) == keep
        for i, s in enumerate(r):
            assert (s.sample_id, s.mean, s.std, s.n_trials) == \
                (r.ids[i], r.mean[i], r.std[i], r.n_trials[i])
            assert type(s.mean) is float and type(s.n_trials) is int
            if keep:
                assert np.array_equal(s.trials, r.trials[i])
                s.trials[0] = np.inf  # a row's trials are its own copy
                assert np.isfinite(r.trials[i, 0])
            else:
                assert s.trials is None


def test_predict_writes_raw_mean_as_expm1_of_mean(tmp_path):
    ds = small_dataset(n=200)
    data.save_csv(ds, tmp_path / "d.csv")
    net = nn.build_mlp(ds.dim, [16, 8], 0.3, seed=4)
    nn.save_checkpoint(tmp_path / "m.ckpt", nn.Checkpoint(network=net))
    argv = ["predict", "--model", tmp_path / "m.ckpt", "--data", tmp_path / "d.csv",
            "--trials", 6, "--keep-trials", "--out", tmp_path / "p.csv"]
    assert cli.main([str(a) for a in argv]) == 0
    with open(tmp_path / "p.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["id"] for row in rows] == ds.ids
    for row in rows:
        mean = float(row["mean"])
        assert row["mean"] == repr(mean)
        assert row["raw_mean"] == repr(math.expm1(mean))
        assert row["n_trials"] == "6"
        trials = [float(row[f"t{j}"]) for j in range(6)]
        assert mean == pytest.approx(np.mean(trials), rel=1e-12)
