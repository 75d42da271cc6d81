import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmcd.numcore import (
    AdamState,
    NumericError,
    RngStream,
    ShapeError,
    adam_step,
    as_matrix,
    matmul,
)
from ltvmcd.trainer import TrainConfig


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_row_times_column(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_zero_matrix(self):
        z = np.zeros((2, 2))
        b = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(z, b), np.zeros((2, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 1.0]])
        with pytest.raises(NumericError):
            matmul(bad, np.ones((2, 1)))

    def test_associativity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(5, 3))
            c = rng.normal(size=(3, 6))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            scale = np.abs(left).max() + 1e-12
            assert np.abs(left - right).max() / scale < 1e-10


class TestAsMatrix:
    def test_coerces_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64 and m.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])


class TestRngStream:
    def test_replay_identical(self):
        a = RngStream(42, "weights").normal(100)
        b = RngStream(42, "weights").normal(100)
        assert np.array_equal(a, b)

    def test_labels_differ(self):
        a = RngStream(42, "weights").normal(100)
        b = RngStream(42, "masks").normal(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(1, "x").uniform(50)
        b = RngStream(2, "x").uniform(50)
        assert not np.array_equal(a, b)

    def test_empty_draw_keeps_counter(self):
        s = RngStream(0, "x")
        out = s.uniform(0)
        assert out.shape == (0,) and s.counter == 0
        # and the stream is not perturbed by the empty draw
        assert np.array_equal(s.uniform(3), RngStream(0, "x").uniform(3))

    def test_counter_tracks_draws(self):
        s = RngStream(0, "x")
        s.normal(7)
        s.uniform(5)
        assert s.counter == 12

    def test_continuation_matches_one_shot(self):
        s = RngStream(9, "seq")
        first = s.normal(10)
        second = s.normal(10)
        combined = RngStream(9, "seq").normal(20)
        assert np.array_equal(np.concatenate([first, second]), combined)

    def test_child_stream_is_stable(self):
        c1 = RngStream(5, "train").child("epoch0").uniform(8)
        c2 = RngStream(5, "train/epoch0").uniform(8)
        assert np.array_equal(c1, c2)

    def test_uniform_mean(self):
        draws = RngStream(7, "bulk").uniform(1_000_000)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_permutation_is_permutation(self):
        p = RngStream(3, "perm").permutation(100)
        assert sorted(p.tolist()) == list(range(100))

    @given(seed=st.integers(0, 2**31), n=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_replay_property(self, seed, n):
        assert np.array_equal(
            RngStream(seed, "prop").normal(n), RngStream(seed, "prop").normal(n)
        )


class TestAdam:
    def test_zero_gradient_is_noop(self):
        p = [np.array([[1.0, -2.0]])]
        state = AdamState.for_params(p)
        adam_step(state, p, [np.zeros((1, 2))], TrainConfig(learning_rate=0.1))
        assert np.array_equal(p[0], np.array([[1.0, -2.0]]))

    def test_first_step_moves_by_lr(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one,
        # so the update is lr * g / (|g| + eps) ~ lr * sign(g)
        p = [np.array([[1.0]])]
        state = AdamState.for_params(p)
        adam_step(state, p, [np.array([[1.0]])], TrainConfig(learning_rate=0.1))
        assert p[0][0, 0] == pytest.approx(0.9, abs=1e-8)

    def test_quadratic_convergence(self):
        w = [np.array([[0.0]])]
        state = AdamState.for_params(w)
        cfg = TrainConfig(learning_rate=0.05)
        for _ in range(2000):
            grad = [2.0 * (w[0] - 3.0)]
            adam_step(state, w, grad, cfg)
        assert abs(w[0][0, 0] - 3.0) < 1e-2

    def test_shape_mismatch_rejected(self):
        p = [np.ones((2, 2))]
        state = AdamState.for_params(p)
        with pytest.raises(ShapeError):
            adam_step(state, p, [np.ones((2, 3))], TrainConfig())

    def test_nan_gradient_rejected(self):
        p = [np.ones((1, 1))]
        state = AdamState.for_params(p)
        with pytest.raises(NumericError):
            adam_step(state, p, [np.array([[np.nan]])], TrainConfig())
