import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ltvmcd import McdConfig, losses, mcd_predict, nn, trainer
from ltvmcd.data import Dataset


def fd_grad(f, x, step=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


class TestLogMse:
    def test_exact_fit_is_zero(self):
        labels = np.array([0.0, 1.0, 10.0, 250.0])
        output = np.log1p(labels)[:, None]
        lv = losses.log_mse(output, labels)
        assert lv.value == 0.0
        assert np.all(lv.grad == 0.0)

    def test_single_row_arithmetic(self):
        lv = losses.log_mse(np.array([[1.0]]), np.array([0.0]))
        assert lv.value == 1.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        output = rng.normal(size=(6, 1))
        labels = np.concatenate([np.zeros(3), np.exp(rng.normal(size=3))])

        def value():
            return losses.log_mse(output, labels).value

        lv = losses.log_mse(output, labels)
        assert rel_err(lv.grad, fd_grad(value, output)) < 1e-6

    @given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_minimized_exactly_at_log1p(self, raw):
        labels = np.array(raw)
        at_min = losses.log_mse(np.log1p(labels)[:, None], labels).value
        nudged = losses.log_mse(np.log1p(labels)[:, None] + 0.1, labels).value
        assert at_min == 0.0 and nudged > 0.0

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError):
            losses.log_mse(np.zeros((1, 1)), np.array([-1.0]))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            losses.log_mse(np.zeros((2, 3)), np.zeros(2))


class TestZilnLoss:
    def test_zero_label_logit_zero(self):
        head = np.array([[0.0, 0.3, -0.2]])
        lv = losses.ziln_loss(head, np.array([0.0]))
        assert lv.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unit_label_certain_buyer(self):
        # y=1 makes log y = 0 and kills the quadratic term when mu = 0;
        # a huge logit sends the classification term to 0, leaving
        # log sigma + log sqrt(2 pi) with sigma = 1
        s_for_sigma_one = math.log(math.e - 1.0)
        head = np.array([[50.0, 0.0, s_for_sigma_one]])
        lv = losses.ziln_loss(head, np.array([1.0]))
        assert lv.value == pytest.approx(0.5 * math.log(2.0 * math.pi), rel=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        head = rng.normal(size=(8, 3))
        labels = np.concatenate([np.zeros(4), np.exp(rng.normal(size=4))])

        def value():
            return losses.ziln_loss(head, labels).value

        lv = losses.ziln_loss(head, labels)
        assert rel_err(lv.grad, fd_grad(value, head)) < 1e-4

    def test_classification_pull_toward_positive_rate(self):
        # with mu, sigma at the truth, the loss improves as the purchase
        # probability approaches the batch's actual positive rate
        rng = np.random.default_rng(3)
        n = 400
        rate = 0.3
        buys = rng.random(n) < rate
        amounts = np.where(buys, np.exp(1.0 + 0.5 * rng.standard_normal(n)), 0.0)
        s_for_half = math.log(math.exp(0.5) - 1.0)

        def loss_at(p):
            logit = math.log(p / (1.0 - p))
            head = np.tile([logit, 1.0, s_for_half], (n, 1))
            return losses.ziln_loss(head, amounts).value

        empirical = float(buys.mean())
        assert loss_at(empirical) < loss_at(0.05)
        assert loss_at(empirical) < loss_at(0.8)

    def test_head_width_enforced(self):
        with pytest.raises(ValueError):
            losses.ziln_loss(np.zeros((2, 2)), np.zeros(2))


class TestZilnPredict:
    def test_vanishing_purchase_probability(self):
        head = np.array([[-40.0, 2.0, 0.5]])
        assert losses.ziln_predict(head)[0] == pytest.approx(0.0, abs=1e-12)

    def test_certain_buyer_degenerate_amount(self):
        head = np.array([[40.0, 0.0, -40.0]])  # sigma hits the floor
        assert losses.ziln_predict(head)[0] == pytest.approx(1.0, rel=1e-9)

    def test_matches_sampling_oracle(self):
        logit, mu, s = 0.0, 1.0, math.log(math.exp(0.5) - 1.0)
        analytic = losses.ziln_predict(np.array([[logit, mu, s]]))[0]
        sampled = oracles.ziln_mc_mean(logit, mu, s, 1_000_000, seed=0)
        assert abs(analytic - sampled) / sampled < 0.02


def test_loss_fn_dispatch():
    assert losses.loss_fn("log_mse") is losses.log_mse
    assert losses.loss_fn("ziln") is losses.ziln_loss
    for lookup in (losses.loss_fn, losses.head_width, losses.point_fn):
        with pytest.raises(ValueError, match="unknown loss kind 'huber'"):
            lookup("huber")
    assert losses.head_width("log_mse") == 1
    assert losses.head_width("ziln") == 3


class TestUnknownKind:
    """An unknown loss kind is raised before any pass."""

    MESSAGE = "unknown loss kind 'huber'"

    @pytest.fixture
    def forwards(self, monkeypatch):
        calls = []
        forward = nn.Network.forward
        monkeypatch.setattr(nn.Network, "forward",
                            lambda net, *a, **kw: calls.append(1) or forward(net, *a, **kw))
        return calls

    def test_mcd_predict_runs_no_pass(self, forwards):
        ds = Dataset(["a", "b"], np.zeros((2, 3)), np.zeros(2))
        net = nn.build_mlp(3, [4], 0.2, seed=0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            mcd_predict(net, ds, McdConfig(trials=4), loss_kind="huber")
        assert forwards == []

    def test_train_runs_no_batch(self, forwards):
        ds = Dataset([f"r{i}" for i in range(8)], np.zeros((8, 3)), np.ones(8))
        net = nn.build_mlp(3, [4], 0.2, seed=0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            trainer.train(net, ds, trainer.TrainConfig(epochs=1), loss_kind="huber")
        assert forwards == []
