import numpy as np
import pytest
from scipy import stats

from ltvmcd import data
from ltvmcd.numcore import NumericError


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            data.SynthConfig(n=0, dim=4)
        with pytest.raises(ValueError):
            data.SynthConfig(n=10, dim=0)
        with pytest.raises(ValueError):
            data.SynthConfig(n=10, dim=4, noise_sigma=0.0)
        with pytest.raises(ValueError):
            data.SynthConfig(n=10, dim=4, zero_inflation=1.5)

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError):
            data.SynthConfig.from_dict({"n": 10, "dim": 4, "rows": 5})


class TestGenerateSynthetic:
    def test_full_inflation_all_zero(self):
        ds = data.generate_synthetic(data.SynthConfig(n=500, dim=4, zero_inflation=1.0))
        assert np.all(ds.labels == 0.0)

    def test_positive_rate_calibrated(self):
        cfg = data.SynthConfig(n=100_000, dim=10, zero_inflation=0.95, master_seed=1)
        ds = data.generate_synthetic(cfg)
        assert abs(float(np.mean(ds.labels > 0)) - 0.05) < 0.005

    @pytest.mark.parametrize("n", [1, 7, 1000, 50_000])
    def test_calibration_stops_where_200_steps_end(self, n):
        def bisect_200(score, target_rate):
            lo, hi = -60.0, 60.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                rate = float(np.mean(data._sigmoid(data._PROPENSITY_SLOPE * score + mid)))
                if rate < target_rate:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        x = np.random.default_rng(n).normal(size=(n, 10))
        score = data.latent_score(x)
        for zero_inflation in (1e-4, 0.05, 0.5, 0.9, 0.95, 0.9999):
            want = bisect_200(score, 1.0 - zero_inflation)
            got = data._calibrate_intercept(score, 1.0 - zero_inflation)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_same_seed_identical(self):
        cfg = data.SynthConfig(n=300, dim=6, master_seed=9)
        a = data.generate_synthetic(cfg)
        b = data.generate_synthetic(cfg)
        assert a.ids == b.ids
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_log_positives_near_normal(self):
        cfg = data.SynthConfig(n=100_000, dim=10, zero_inflation=0.95, master_seed=1)
        ds = data.generate_synthetic(cfg)
        logs = np.log(ds.labels[ds.labels > 0])
        ks = stats.kstest(logs, "norm", args=(logs.mean(), logs.std(ddof=1))).statistic
        assert ks < 0.02

    def test_labels_rank_with_latent_score(self):
        # the score drives both propensity and amount, so feature-derived
        # ranking signal must exist (otherwise the metrics are vacuous)
        cfg = data.SynthConfig(n=20_000, dim=8, zero_inflation=0.8, master_seed=3)
        ds = data.generate_synthetic(cfg)
        score = data.latent_score(ds.features)
        buyers = ds.labels > 0
        assert score[buyers].mean() > score[~buyers].mean() + 0.2


class TestCsv:
    def test_hand_written_two_rows(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text("id,f0,f1,label\nu1,0.5,-1.25,0.0\nu2,2.0,3.5,99.5\n")
        ds = data.load_csv(path)
        assert ds.ids == ["u1", "u2"]
        assert ds.features.tolist() == [[0.5, -1.25], [2.0, 3.5]]
        assert ds.labels.tolist() == [0.0, 99.5]

    def test_negative_label_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f0,label\nu1,0.5,1.0\nu2,0.5,-1\n")
        with pytest.raises(data.CsvFormatError, match="line 3"):
            data.load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,f0,f1,label\nu1,0.5,1.0\n")
        with pytest.raises(data.CsvFormatError, match="line 2"):
            data.load_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,x0,x1,label\nu1,0.5,1.0,0.0\n")
        with pytest.raises(data.CsvFormatError, match="line 1"):
            data.load_csv(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("id,f0,label\nu1,nan,1.0\n")
        with pytest.raises(data.CsvFormatError, match="line 2"):
            data.load_csv(path)

    def test_round_trip_exact(self, tmp_path):
        ds = data.generate_synthetic(data.SynthConfig(n=1000, dim=7, master_seed=4))
        path = tmp_path / "round.csv"
        data.save_csv(ds, path)
        back = data.load_csv(path)
        assert back.ids == ds.ids
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


class TestSplit:
    def test_sizes(self):
        ds = data.generate_synthetic(data.SynthConfig(n=10, dim=3, master_seed=0))
        train, test = data.split(ds, 0.8, seed=1)
        assert train.n == 8 and test.n == 2

    def test_union_disjoint(self):
        ds = data.generate_synthetic(data.SynthConfig(n=101, dim=3, master_seed=0))
        train, test = data.split(ds, 0.7, seed=5)
        assert set(train.ids).isdisjoint(test.ids)
        assert set(train.ids) | set(test.ids) == set(ds.ids)

    def test_seed_deterministic(self):
        ds = data.generate_synthetic(data.SynthConfig(n=50, dim=3, master_seed=0))
        a_train, _ = data.split(ds, 0.8, seed=2)
        b_train, _ = data.split(ds, 0.8, seed=2)
        c_train, _ = data.split(ds, 0.8, seed=3)
        assert a_train.ids == b_train.ids
        assert a_train.ids != c_train.ids

    def test_degenerate_fraction_rejected(self):
        ds = data.generate_synthetic(data.SynthConfig(n=10, dim=3, master_seed=0))
        for frac in (0.0, 1.0):
            with pytest.raises(ValueError):
                data.split(ds, frac, seed=0)
        tiny = data.generate_synthetic(data.SynthConfig(n=2, dim=3, master_seed=0))
        with pytest.raises(ValueError):
            data.split(tiny, 0.99, seed=0)  # test side would be empty


class TestStandardize:
    def test_train_moments(self):
        ds = data.generate_synthetic(data.SynthConfig(n=400, dim=5, master_seed=8))
        train, test = data.split(ds, 0.8, seed=8)
        train_std, _ = data.standardize(train, test)
        assert np.abs(train_std.features.mean(axis=0)).max() < 1e-10
        assert np.abs(train_std.features.std(axis=0) - 1.0).max() < 1e-10

    def test_test_uses_train_statistics(self):
        ds = data.generate_synthetic(data.SynthConfig(n=200, dim=4, master_seed=2))
        train, test = data.split(ds, 0.5, seed=2)
        train_std, test_std = data.standardize(train, test)
        manual = (test.features - train.features.mean(axis=0)) / train.features.std(axis=0)
        assert np.allclose(test_std.features, manual, rtol=0, atol=1e-12)
        assert np.array_equal(train_std.norm_mean, test_std.norm_mean)

    def test_constant_feature_passthrough(self):
        feats = np.column_stack([np.full(20, 7.0), np.arange(20.0)])
        labels = np.zeros(20)
        labels[0] = 1.0
        train = data.Dataset([f"a{i}" for i in range(20)], feats, labels)
        test = data.Dataset(["b0"], np.array([[7.0, 3.0]]), np.array([0.0]))
        train_std, test_std = data.standardize(train, test)
        assert np.array_equal(train_std.features[:, 0], feats[:, 0])
        assert test_std.features[0, 0] == 7.0
        # the varying column is still scaled
        assert abs(train_std.features[:, 1].std() - 1.0) < 1e-10


class TestDataset:
    def test_invariants(self):
        with pytest.raises(ValueError):
            data.Dataset(["a"], np.zeros((1, 2)), np.array([-1.0]))
        with pytest.raises(ValueError):
            data.Dataset(["a", "b"], np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(NumericError):
            data.Dataset(["a"], np.array([[np.nan, 0.0]]), np.zeros(1))
