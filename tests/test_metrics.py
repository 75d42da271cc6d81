import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ltvmcd import metrics
from ltvmcd.mcd import PredictionSummary
from ltvmcd.numcore import NumericError, ShapeError

finite = st.floats(allow_nan=False, allow_infinity=False)
small_preds = st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8)


class TestNormalizedGini:
    def test_perfect_ordering(self):
        labels = np.array([1.0, 5.0, 3.0, 10.0, 0.5])
        assert metrics.normalized_gini(labels, labels) == pytest.approx(1.0, abs=1e-12)

    def test_committed_fixture(self):
        # ordering by preds is [0, 1, 0]: the lone positive sits in the
        # middle of the Lorenz curve, which nets out to exactly zero
        labels = [0.0, 0.0, 1.0]
        preds = [0.9, 0.1, 0.5]
        value = metrics.normalized_gini(preds, labels)
        assert value == oracles.normalized_gini(preds, labels)
        assert value == 0.0

    def test_random_predictions_near_zero(self):
        rng = np.random.default_rng(123)
        labels = np.where(rng.random(10_000) < 0.9, 0.0, np.exp(rng.normal(size=10_000)))
        preds = rng.normal(size=10_000)
        assert abs(metrics.normalized_gini(preds, labels)) < 0.05

    @given(
        labels=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_exactly(self, labels, seed):
        assume(sum(labels) > 0)
        preds = np.random.default_rng(seed).normal(size=len(labels)).tolist()
        try:
            expected = oracles.normalized_gini(preds, labels)
        except ZeroDivisionError:
            assume(False)
        assert metrics.normalized_gini(preds, labels) == expected

    @given(
        labels=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_increasing_transform(self, labels, seed):
        assume(sum(labels) > 0 and len(set(labels)) > 1)
        preds = np.random.default_rng(seed).normal(size=len(labels))
        base = metrics.normalized_gini(preds, labels)
        assert metrics.normalized_gini(3.0 * preds + 7.0, labels) == base
        assert metrics.normalized_gini(np.tanh(preds / 200.0), labels) == base

    def test_all_zero_labels_rejected(self):
        with pytest.raises(NumericError):
            metrics.normalized_gini([1.0, 2.0], [0.0, 0.0])

    def test_constant_labels_rejected(self):
        with pytest.raises(NumericError):
            metrics.normalized_gini([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.normalized_gini([1.0], [1.0, 2.0])


class TestTopKMape:
    def test_perfect_predictions(self):
        labels = np.array([5.0, 1.0, 9.0, 2.0])
        assert metrics.top_k_mape(labels, labels, 1.0) == 0.0

    def test_two_sample_arithmetic(self):
        assert metrics.top_k_mape([110.0, 180.0], [100.0, 200.0], 1.0) == 0.1

    def test_selects_largest_labels(self):
        # 10 positives among 100; k=0.05 must pick exactly the 5 largest
        # labels, where predictions are perfect, so the error is zero
        labels = np.zeros(100)
        labels[:10] = np.arange(10.0, 0.0, -1.0)  # 10, 9, ..., 1
        preds = np.full(100, 3.14)
        preds[:5] = labels[:5]
        assert metrics.top_k_mape(preds, labels, 0.05) == 0.0

    def test_zero_label_in_cohort_rejected(self):
        with pytest.raises(NumericError):
            metrics.top_k_mape([1.0, 2.0, 3.0], [0.0, 0.0, 1.0], 1.0)

    @given(
        labels=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8),
        k=st.sampled_from([0.05, 0.25, 0.5, 1.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_exactly(self, labels, k, seed):
        preds = np.random.default_rng(seed).normal(size=len(labels)).tolist()
        assert metrics.top_k_mape(preds, labels, k) == oracles.top_k_mape(preds, labels, k)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            metrics.top_k_mape([1.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            metrics.top_k_mape([1.0], [1.0], 1.5)


class TestTopKHitRate:
    def test_perfect_predictions(self):
        labels = np.arange(20.0)
        assert metrics.top_k_hit_rate(labels, labels, 0.25) == 1.0

    def test_disjoint_top_sets(self):
        labels = np.array([9.0, 8.0, 1.0, 2.0])
        preds = np.array([1.0, 2.0, 9.0, 8.0])
        assert metrics.top_k_hit_rate(preds, labels, 0.5) == 0.0

    def test_partial_overlap(self):
        # top five labels are indices 0..4, top five preds are 2..6
        labels = np.concatenate([np.arange(100.0, 95.0, -1.0), np.zeros(95)])
        preds = np.zeros(100)
        preds[2:7] = np.arange(50.0, 45.0, -1.0)
        assert metrics.top_k_hit_rate(preds, labels, 0.05) == 0.6

    @given(
        labels=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8),
        k=st.sampled_from([0.05, 0.3, 1.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_exactly(self, labels, k, seed):
        preds = np.random.default_rng(seed).normal(size=len(labels)).tolist()
        assert metrics.top_k_hit_rate(preds, labels, k) == oracles.top_k_hit_rate(
            preds, labels, k
        )

    @given(
        values=st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
                        min_size=2, max_size=8),
        k=st.sampled_from([0.05, 0.5, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric_in_preds_and_labels(self, values, k):
        a = [v[0] for v in values]
        b = [v[1] for v in values]
        assert metrics.top_k_hit_rate(a, b, k) == metrics.top_k_hit_rate(b, a, k)


class TestConfidenceCurve:
    def test_zero_std_exact_means_cover_everywhere(self):
        summaries = [PredictionSummary(f"u{i}", float(i), 0.0, 4) for i in range(3)]
        labels = [0.0, 1.0, 2.0]
        curve = metrics.confidence_curve(summaries, labels)
        assert all(acc == 1.0 for _, acc in curve)

    def test_zero_std_wrong_means_cover_nowhere(self):
        summaries = [PredictionSummary(f"u{i}", float(i), 0.0, 4) for i in range(3)]
        labels = [0.5, 1.5, 2.5]
        curve = metrics.confidence_curve(summaries, labels)
        assert all(acc == 0.0 for _, acc in curve)

    def test_step_at_z_04(self):
        # sample one misses by 0.4 interval units, sample two by 2.0;
        # accuracy steps from 0 to 1/2 exactly at z = 0.4 and holds to 1
        summaries = [
            PredictionSummary("near", 10.0, 1.0, 1),
            PredictionSummary("far", 10.0, 1.0, 1),
        ]
        labels = [10.0 + 0.4, 10.0 + 2.0]
        curve = metrics.confidence_curve(summaries, labels)
        for z, acc in curve:
            assert acc == (0.5 if z >= 0.4 else 0.0), (z, acc)

    def test_monotone_on_random_inputs(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            summaries = [
                PredictionSummary(f"u{i}", float(rng.normal()), float(abs(rng.normal())),
                                  int(rng.integers(1, 40)))
                for i in range(n)
            ]
            labels = rng.normal(size=n)
            accs = [acc for _, acc in metrics.confidence_curve(summaries, labels)]
            assert all(b >= a for a, b in zip(accs, accs[1:]))

    def test_grid_must_increase(self):
        s = [PredictionSummary("a", 0.0, 1.0, 4)]
        with pytest.raises(ValueError):
            metrics.confidence_curve(s, [0.0], z_grid=[0.5, 0.5])

    def test_default_grid(self):
        grid = metrics.default_z_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid[8] == 0.4


class TestReport:
    def test_build_report_composes(self):
        labels = np.array([3.0, 0.0, 7.0, 1.0, 0.0, 12.0])
        preds = labels + 0.25
        summaries = [PredictionSummary(f"u{i}", float(p), 0.1, 16) for i, p in enumerate(preds)]
        report = metrics.build_report(preds, labels, k=0.5, summaries=summaries,
                                      labels_model_space=labels)
        assert report.n == 6
        assert report.normalized_gini == metrics.normalized_gini(preds, labels)
        assert report.top_k_mape == metrics.top_k_mape(preds, labels, 0.5)
        assert report.top_k_hit_rate == metrics.top_k_hit_rate(preds, labels, 0.5)
        d = asdict(report)
        assert d["n"] == 6 and len(d["confidence_curve"]) == 21

    def test_curve_requires_model_space_labels(self):
        with pytest.raises(ValueError):
            metrics.build_report([1.0, 2.0], [1.0, 2.0], k=1.0,
                                 summaries=[PredictionSummary("a", 1.0, 0.0, 1),
                                            PredictionSummary("b", 2.0, 0.0, 1)])

    def test_invariants_enforced(self):
        with pytest.raises(NumericError):
            metrics.MetricsReport(n=2, k=0.05, normalized_gini=1.5,
                                  top_k_mape=0.0, top_k_hit_rate=1.0)
        with pytest.raises(ValueError):
            metrics.MetricsReport(n=2, k=0.05, normalized_gini=0.5,
                                  top_k_mape=0.0, top_k_hit_rate=1.0,
                                  confidence_curve=[(0.5, 0.1), (0.5, 0.2)])
