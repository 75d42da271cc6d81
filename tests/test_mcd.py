import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ltvmcd import losses, mcd, nn
from ltvmcd.data import Dataset
from ltvmcd.mcd import BLOCK_ROWS, McdConfig, PredictionSummary, confidence_interval, mcd_predict
from ltvmcd.numcore import NumericError, RngStream


def tiny_dataset(n=6, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset([f"u{i}" for i in range(n)], rng.normal(size=(n, d)), np.zeros(n))


class ScriptedNet:
    """Duck-typed stand-in whose forward returns scripted per-trial values."""

    input_dim = 1

    def __init__(self, per_trial_values):
        self.values = list(per_trial_values)
        self.calls = 0

    def forward(self, x, mode, rng=None):
        out = np.full((x.shape[0], 1), self.values[self.calls])
        self.calls += 1
        return out, None


class TestMcdPredict:
    def test_recorded_trials_two_and_four(self):
        ds = Dataset(["a"], np.zeros((1, 1)), np.zeros(1))
        net = ScriptedNet([2.0, 4.0])
        (s,) = mcd_predict(net, ds, McdConfig(trials=2), keep_trials=True)
        assert s.mean == 3.0
        assert s.std == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert s.trials.tolist() == [2.0, 4.0]
        assert s.n_trials == 2

    def test_dropout_zero_equals_eval_any_t(self):
        net = nn.build_mlp(5, [8, 4], 0.0, seed=3)
        ds = tiny_dataset()
        ref, _ = net.forward(ds.features, "eval")
        for t in (1, 5):
            summaries = mcd_predict(net, ds, McdConfig(trials=t, master_seed=17))
            for i, s in enumerate(summaries):
                assert s.mean == ref[i, 0]
                assert s.std == 0.0

    def test_single_trial_std_zero(self):
        net = nn.build_mlp(5, [8], 0.5, seed=3)
        summaries = mcd_predict(net, tiny_dataset(), McdConfig(trials=1, master_seed=2))
        assert all(s.std == 0.0 for s in summaries)

    @pytest.mark.parametrize("arch,loss", [
        ("mlp", "log_mse"),
        ("dcnv2", "log_mse"),
        ("mlp", "ziln"),
    ])
    def test_replay_oracle_bit_identical(self, arch, loss):
        width = losses.head_width(loss)
        if arch == "mlp":
            net = nn.build_mlp(5, [12, 6], 0.4, out_dim=width, seed=8)
        else:
            net = nn.build_dcnv2(5, 2, [12, 6], 0.4, out_dim=width, seed=8)
        ds = tiny_dataset(n=9)
        summaries = mcd_predict(net, ds, McdConfig(trials=13, master_seed=5), loss_kind=loss)
        means, stds = oracles.mcd_replay(net, ds.features, 13, 5, loss_kind=loss)
        for s, m, sd in zip(summaries, means, stds):
            assert s.mean == m
            assert s.std == sd

    def test_std_matches_formula_on_recorded_vectors(self):
        net = nn.build_mlp(5, [10], 0.3, seed=1)
        summaries = mcd_predict(net, tiny_dataset(), McdConfig(trials=8, master_seed=4),
                                keep_trials=True)
        for s in summaries:
            assert s.std == oracles.sample_std(s.trials)

    def test_rerun_bit_identical(self):
        net = nn.build_mlp(5, [10], 0.3, seed=1)
        ds = tiny_dataset()
        cfg = McdConfig(trials=6, master_seed=42)
        a = mcd_predict(net, ds, cfg)
        b = mcd_predict(net, ds, cfg)
        assert [(s.mean, s.std) for s in a] == [(s.mean, s.std) for s in b]

    def test_chunking_keeps_one_mask_per_trial(self):
        # every chunk of a trial replays the same stream, so a sample's
        # trial value cannot depend on the inference batch size
        net = nn.build_mlp(5, [32], 0.5, seed=6)
        ds = tiny_dataset(n=23)
        whole = mcd_predict(net, ds, McdConfig(trials=4, master_seed=9), keep_trials=True)
        chunked = mcd_predict(net, ds, McdConfig(trials=4, master_seed=9, batch_size=7),
                              keep_trials=True)
        for a, b in zip(whole, chunked):
            assert np.allclose(a.trials, b.trials, rtol=0, atol=1e-12)
            assert np.array_equal(a.trials == 0.0, b.trials == 0.0)

    def test_seed_changes_summaries(self):
        net = nn.build_mlp(5, [10], 0.4, seed=1)
        ds = tiny_dataset()
        a = mcd_predict(net, ds, McdConfig(trials=4, master_seed=0))
        b = mcd_predict(net, ds, McdConfig(trials=4, master_seed=1))
        assert any(x.mean != y.mean for x, y in zip(a, b))

    def test_width_mismatch_rejected(self):
        net = nn.build_mlp(4, [6], 0.2, seed=0)
        with pytest.raises(ValueError):
            mcd_predict(net, tiny_dataset(d=5), McdConfig(trials=2))

    def test_bad_trial_count_rejected(self):
        with pytest.raises(ValueError):
            McdConfig(trials=0)


def pass_rows(monkeypatch):
    """The row count of every Network.forward call from now on."""
    rows = []
    forward = nn.Network.forward

    def spy(self, x, *args, **kwargs):
        rows.append(x.shape[0])
        return forward(self, x, *args, **kwargs)

    monkeypatch.setattr(nn.Network, "forward", spy)
    return rows


def bench_shaped_net(arch, loss, dropout=0.2):
    width = losses.head_width(loss)
    if arch == "mlp":
        return nn.build_mlp(10, [128, 64, 32], dropout, out_dim=width, seed=4)
    return nn.build_dcnv2(10, 2, [64, 32], dropout, out_dim=width, seed=4)


class TestWholeDatasetBlocks:
    """With batch_size 0 the rows run in blocks of BLOCK_ROWS, the last one
    holding the remainder; the trials must carry the bits of one
    whole-batch pass per trial."""

    @pytest.mark.parametrize("n", [2048, 2049, 3071, 5157, 10000])
    @pytest.mark.parametrize("arch", ["mlp", "dcnv2"])
    @pytest.mark.parametrize("loss", ["log_mse", "ziln"])
    def test_blocks_give_the_bits_of_the_whole_batch(self, monkeypatch, n, arch, loss):
        net = bench_shaped_net(arch, loss)
        x = 0.2 * np.random.default_rng(n).normal(size=(n, 10))
        ds = Dataset([f"u{i}" for i in range(n)], x, np.zeros(n))
        rows = pass_rows(monkeypatch)
        result = mcd_predict(net, ds, McdConfig(trials=5, master_seed=6), loss, keep_trials=True)
        assert len(rows) == 5 * (n // BLOCK_ROWS)
        assert min(rows) >= BLOCK_ROWS
        for j in range(5):
            out, _ = net.forward(x, "mc_sample", RngStream(6, f"mcd/{j}"))
            whole = losses.ziln_predict(out) if loss == "ziln" else out[:, 0]
            assert whole.tobytes() == result.trials[:, j].tobytes()
        means, stds = oracles.mcd_replay(net, x, 5, 6, loss)
        assert np.array_equal(result.mean, means)
        assert np.array_equal(result.std, stds)

    @pytest.mark.parametrize("arch", ["mlp", "dcnv2"])
    def test_a_net_without_dropout_keeps_the_eval_bits(self, monkeypatch, arch):
        net = bench_shaped_net(arch, "log_mse", dropout=0.0)
        x = 0.2 * np.random.default_rng(1).normal(size=(5157, 10))
        ds = Dataset([f"u{i}" for i in range(len(x))], x, np.zeros(len(x)))
        rows = pass_rows(monkeypatch)
        result = mcd_predict(net, ds, McdConfig(trials=4, master_seed=6))
        assert rows == [1024] * 4 + [1024 + 37]
        out, _ = net.forward(x, "eval")
        assert result.mean.tobytes() == out[:, 0].tobytes()

    @pytest.mark.parametrize("n", [0, 1, 1023, 2047])
    def test_fewer_than_two_blocks_of_rows_run_as_one(self, monkeypatch, n):
        net = nn.build_mlp(5, [8], 0.3, seed=2)
        rows = pass_rows(monkeypatch)
        mcd_predict(net, tiny_dataset(n=n), McdConfig(trials=3))
        assert rows == [n] * 3

    def test_a_positive_batch_size_is_kept_row_for_row(self, monkeypatch):
        net = nn.build_mlp(5, [8], 0.3, seed=2)
        rows = pass_rows(monkeypatch)
        mcd_predict(net, tiny_dataset(n=3000), McdConfig(trials=2, batch_size=7))
        assert rows == [7] * (2 * 428) + [4] * 2


class TestBlockMoments:
    """Each block's means and stds are taken when its T passes are done:
    the bits of the moments of the whole kept trial matrix, which only
    keep_trials builds."""

    @pytest.mark.parametrize("n", [1000, 2048, 2049, 5157, 10000])
    @pytest.mark.parametrize("batch_size", [0, 7, 1000])
    @pytest.mark.parametrize("arch", ["mlp", "dcnv2"])
    @pytest.mark.parametrize("loss", ["log_mse", "ziln"])
    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_moments_match_the_kept_matrix(self, n, batch_size, arch, loss, dropout):
        net = bench_shaped_net(arch, loss, dropout)
        x = 0.2 * np.random.default_rng(n).normal(size=(n, 10))
        ds = Dataset([f"u{i}" for i in range(n)], x, np.zeros(n))
        cfg = McdConfig(trials=3, master_seed=5, batch_size=batch_size)
        kept = mcd_predict(net, ds, cfg, loss, keep_trials=True)
        lean = mcd_predict(net, ds, cfg, loss)
        assert lean.trials is None and kept.trials.shape == (n, 3)
        # a dropout-free net runs one eval pass, which stands for every trial
        whole = mcd._moments(kept.trials if dropout else kept.trials[:, :1].copy())
        for result in (lean, kept):
            assert result.mean.tobytes() == whole[0].tobytes()
            assert result.std.tobytes() == whole[1].tobytes()

    def test_memory_is_bounded_by_a_block_not_the_trial_matrix(self):
        n, t = 10_000, 64
        net = bench_shaped_net("mlp", "log_mse")
        x = 0.2 * np.random.default_rng(0).normal(size=(n, 10))
        ds = Dataset([f"u{i}" for i in range(n)], x, np.zeros(n))
        tracemalloc.start()
        try:
            mcd_predict(net, ds, McdConfig(trials=t, master_seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * t * 8  # the (n, T) matrix alone would need this much


class RowScaledNet:
    """Duck-typed stochastic stand-in: every trial returns column 0 of the
    input times scale, so a row's mean overflows where T * x0 * scale does."""

    input_dim = 1

    def __init__(self, scale):
        self.scale = scale

    def forward(self, x, mode, rng=None):
        return x[:, :1] * self.scale, None


class TestNonFiniteMoments:
    def test_names_the_first_id_whose_mean_overflows(self):
        x = np.array([[0.25], [0.5], [1.5], [0.125], [1.75]])
        ds = Dataset([f"u{i}" for i in range(5)], x, np.zeros(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^id 'u2': MCD mean inf and std "):
                mcd_predict(RowScaledNet(1e308), ds, McdConfig(trials=2, batch_size=2))

    def test_rows_under_the_limit_pass(self):
        x = np.array([[0.25], [0.5]])
        ds = Dataset(["a", "b"], x, np.zeros(2))
        result = mcd_predict(RowScaledNet(1e308), ds, McdConfig(trials=2))
        assert result.mean.tolist() == [2.5e307, 5e307]
        assert result.std.tolist() == [0.0, 0.0]


def test_a_call_builds_one_stream_per_trial_and_holds_one_at_a_time(monkeypatch):
    made, alive = [], weakref.WeakSet()

    class Counted(RngStream):
        def __init__(self, master_seed, label):
            assert not alive
            super().__init__(master_seed, label)
            made.append(label)
            alive.add(self)

    monkeypatch.setattr(mcd, "RngStream", Counted)
    net = nn.build_mlp(5, [8, 8], 0.3, seed=2)
    mcd_predict(net, tiny_dataset(n=23), McdConfig(trials=4, batch_size=7))
    assert made == [f"mcd/{j}" for j in range(4)]


class TestConfidenceInterval:
    def test_literal_z_arithmetic(self):
        s = PredictionSummary("a", 3.0, math.sqrt(2.0), 2)
        lo, hi = confidence_interval(s, 0.9)
        assert lo == pytest.approx(2.1, abs=1e-12)
        assert hi == pytest.approx(3.9, abs=1e-12)

    def test_z_zero_degenerate(self):
        s = PredictionSummary("a", 5.0, 1.3, 4)
        assert confidence_interval(s, 0.0) == (5.0, 5.0)

    def test_zero_std_degenerate_every_z(self):
        s = PredictionSummary("a", -2.5, 0.0, 16)
        for z in (0.0, 0.3, 1.0):
            assert confidence_interval(s, z) == (-2.5, -2.5)

    def test_z_out_of_range(self):
        s = PredictionSummary("a", 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            confidence_interval(s, 1.5)
        with pytest.raises(ValueError):
            confidence_interval(s, -0.1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_width_non_decreasing_in_z(self, z1, z2):
        s = PredictionSummary("a", 1.0, 0.7, 9)
        z_lo, z_hi = sorted((z1, z2))
        lo1, hi1 = confidence_interval(s, z_lo)
        lo2, hi2 = confidence_interval(s, z_hi)
        assert hi2 - lo2 >= hi1 - lo1
        if z_hi - z_lo > 1e-9:  # strict growth whenever the std is positive
            assert hi2 - lo2 > hi1 - lo1

    def test_quantile_mode(self):
        s = PredictionSummary("a", 0.0, 2.0, 4)
        lo, hi = confidence_interval(s, 0.6826894921370859, quantile=True)
        # 68.27% central coverage maps to one standard normal unit
        assert hi == pytest.approx(2.0 / math.sqrt(4), rel=1e-9)
        with pytest.raises(ValueError):
            confidence_interval(s, 1.0, quantile=True)
