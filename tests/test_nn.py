import math

import numpy as np
import pytest

from ltvmcd import nn
from ltvmcd.numcore import RngStream, ShapeError


def fd_grad(f, x, step=1e-5):
    """Central finite differences of a scalar function over an array."""
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


class TestDense:
    def test_affine_example(self):
        layer = nn.Dense(np.eye(2), np.array([1.0, 1.0]))
        out, _ = layer.forward(np.array([[3.0, 5.0]]))
        assert out.tolist() == [[4.0, 6.0]]

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        x = rng.normal(size=(5, 4))
        r = rng.normal(size=(5, 3))
        layer = nn.Dense(w, b)

        def loss():
            out, _ = layer.forward(x)
            return float((out * r).sum())

        out, cache = layer.forward(x)
        (gw, gb), gx = layer.backward(cache, r)
        assert rel_err(gw, fd_grad(loss, w)) < 1e-4
        assert rel_err(gb, fd_grad(loss, b)) < 1e-4
        assert rel_err(gx, fd_grad(loss, x)) < 1e-4


class TestDropout:
    def test_zero_rate_is_identity_everywhere(self):
        layer = nn.Dropout(0.0)
        x = np.array([[1.5, -2.0], [0.0, 3.0]])
        for mode in nn.MODES:
            out, cache = layer.forward(x, mode, rng=None)
            assert out is x and cache is None

    def test_fixed_mask_arithmetic(self):
        # RngStream(0, "mask") starts with uniforms giving multipliers [2, 0]
        layer = nn.Dropout(0.5)
        mask = layer.sample_mask(2, RngStream(0, "mask"))
        assert mask.tolist() == [2.0, 0.0]
        out, _ = layer.forward(np.array([[2.0, 4.0]]), "mc_sample", RngStream(0, "mask"))
        assert out.tolist() == [[4.0, 0.0]]

    def test_requires_rng_when_active(self):
        with pytest.raises(ValueError):
            nn.Dropout(0.5).forward(np.ones((1, 2)), "train", rng=None)

    def test_mask_statistics(self):
        p = 0.3
        layer = nn.Dropout(p)
        rng = RngStream(11, "stats")
        masks = np.concatenate([layer.sample_mask(100, rng) for _ in range(1000)])
        zero_frac = float(np.mean(masks == 0.0))
        assert abs(zero_frac - p) < 0.01
        assert abs(float(masks.mean()) - 1.0) < 0.02

    def test_mask_shared_across_rows(self):
        layer = nn.Dropout(0.6)
        x = np.ones((2, 50))
        out, mask = layer.forward(x, "mc_sample", RngStream(4, "share"))
        assert np.array_equal(out[0] == 0.0, out[1] == 0.0)
        assert np.array_equal(out[0], mask)

    def test_backward_applies_mask(self):
        layer = nn.Dropout(0.5)
        x = np.ones((3, 8))
        _, mask = layer.forward(x, "train", RngStream(2, "bw"))
        g = np.full((3, 8), 2.0)
        pg, gx = layer.backward(mask, g)
        assert pg == []
        assert np.array_equal(gx, g * mask)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestCross:
    def test_zero_weight_is_residual_identity(self):
        d = 3
        layer = nn.Cross(np.zeros((d, d)), np.zeros(d))
        x0 = np.array([[1.0, 2.0, 3.0]])
        xl = np.array([[4.0, 5.0, 6.0]])
        out, _ = layer.forward(x0, xl)
        assert np.array_equal(out, xl)

    def test_identity_weight_example(self):
        layer = nn.Cross(np.eye(2), np.zeros(2))
        v = np.array([[1.0, 2.0]])
        out, _ = layer.forward(v, v)
        assert out.tolist() == [[2.0, 6.0]]

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(5)
        d = 4
        w = rng.normal(size=(d, d))
        b = rng.normal(size=d)
        x0 = rng.normal(size=(3, d))
        xl = rng.normal(size=(3, d))
        r = rng.normal(size=(3, d))
        layer = nn.Cross(w, b)

        def loss():
            out, _ = layer.forward(x0, xl)
            return float((out * r).sum())

        _, cache = layer.forward(x0, xl)
        (gw, gb), gx0, gxl = layer.backward(cache, r)
        assert rel_err(gw, fd_grad(loss, w)) < 1e-4
        assert rel_err(gb, fd_grad(loss, b)) < 1e-4
        assert rel_err(gx0, fd_grad(loss, x0)) < 1e-4
        assert rel_err(gxl, fd_grad(loss, xl)) < 1e-4

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            nn.Cross(np.zeros((2, 3)), np.zeros(2))


class TestNetwork:
    def test_mlp_param_count(self):
        net = nn.build_mlp(10, [8], 0.0)
        assert sum(p.size for p in net.params()) == 97

    def test_same_seed_bit_identical(self):
        a = nn.build_mlp(6, [5, 4], 0.1, seed=21)
        b = nn.build_mlp(6, [5, 4], 0.1, seed=21)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)
        c = nn.build_mlp(6, [5, 4], 0.1, seed=22)
        assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.params(), c.params()))

    def test_dropout_zero_modes_agree(self):
        net = nn.build_mlp(5, [6, 4], 0.0, seed=1)
        x = np.random.default_rng(0).normal(size=(7, 5))
        ref, _ = net.forward(x, "eval")
        for mode in ("train", "mc_sample"):
            out, _ = net.forward(x, mode, RngStream(0, "unused"))
            assert np.array_equal(out, ref)

    def test_eval_consumes_no_rng(self):
        net = nn.build_mlp(5, [6], 0.4, seed=1)
        rng = RngStream(0, "eval")
        net.forward(np.zeros((2, 5)), "eval", rng)
        assert rng.counter == 0

    def test_mc_sample_replays_with_stream(self):
        net = nn.build_mlp(5, [16], 0.5, seed=2)
        x = np.random.default_rng(3).normal(size=(4, 5))
        a, _ = net.forward(x, "mc_sample", RngStream(9, "t"))
        b, _ = net.forward(x, "mc_sample", RngStream(9, "t"))
        c, _ = net.forward(x, "mc_sample", RngStream(10, "t"))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_upstream_grad(self):
        for net in (
            nn.build_mlp(5, [6, 4], 0.2, seed=3),
            nn.build_dcnv2(5, 2, [6, 4], 0.2, seed=3),
        ):
            x = np.random.default_rng(1).normal(size=(3, 5))
            out, tape = net.forward(x, "train", RngStream(1, "z"))
            grads, gx = net.backward(tape, np.zeros_like(out))
            assert all(np.all(g == 0.0) for g in grads)
            assert np.all(gx == 0.0)

    def test_dcnv2_without_cross_is_concat_of_input_and_deep(self):
        net = nn.build_dcnv2(4, 0, [6, 3], 0.0, seed=8)
        assert net.cross == []
        x = np.random.default_rng(2).normal(size=(5, 4))
        out, _ = net.forward(x, "eval")
        h = x
        for layer in net.deep:
            h, _ = layer.forward(h, "eval")
        manual, _ = net.head.forward(np.concatenate([x, h], axis=1), "eval")
        assert np.array_equal(out, manual)

    def test_named_params_align(self):
        net = nn.build_dcnv2(4, 1, [5], 0.1, seed=0)
        named = net.named_params()
        assert [p is q for (_, p), q in zip(named, net.params())] == [True] * len(named)

    def test_wrong_input_width(self):
        net = nn.build_mlp(4, [3], 0.0)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((2, 5)), "eval")


def he_uniform(seed, label, out_dim, in_dim):
    """The weight a builder draws from stream init/<label>: (2u - 1)·sqrt(6/in)."""
    u = RngStream(seed, f"init/{label}").uniform(out_dim * in_dim).reshape(out_dim, in_dim)
    return (2.0 * u - 1.0) * math.sqrt(6.0 / in_dim)


def assert_drawn(layers, expected):
    """Each layer's weight is he_uniform(7, label, out, in) to the bit, and
    its bias is out zeros, for expected (label, out, in) in layer order."""
    assert len(layers) == len(expected)
    for layer, (label, out_dim, in_dim) in zip(layers, expected):
        assert layer.w.tobytes() == he_uniform(7, label, out_dim, in_dim).tobytes(), label
        assert layer.b.shape == (out_dim,) and not layer.b.any(), label


class TestInitStreams:
    """Every weight comes from the stream its builder labels it with, which
    every checkpoint and digest of a trained model depends on."""

    @pytest.mark.parametrize("hidden", [[], [5, 3]])
    def test_mlp_dense_weights(self, hidden):
        net = nn.build_mlp(4, hidden, 0.25, out_dim=2, seed=7)
        assert [l.kind for l in net.stack] == ["dense", "relu", "dropout"] * len(hidden) + ["dense"]
        assert all(l.p == 0.25 for l in net.stack if l.kind == "dropout")
        widths = [4, *hidden, 2]
        assert_drawn(net.stack[::3], [(f"dense{i}", widths[i + 1], widths[i])
                                      for i in range(len(widths) - 1)])

    @pytest.mark.parametrize("n_cross", [0, 2])
    @pytest.mark.parametrize("deep", [[], [5, 3]])
    def test_dcnv2_cross_deep_and_head_weights(self, n_cross, deep):
        net = nn.build_dcnv2(4, n_cross, deep, 0.25, out_dim=2, seed=7)
        assert [l.kind for l in net.deep] == ["dense", "relu", "dropout"] * len(deep)
        assert all(l.p == 0.25 for l in net.deep if l.kind == "dropout")
        widths = [4, *deep]
        assert_drawn(net.cross, [(f"cross{i}", 4, 4) for i in range(n_cross)])
        assert_drawn(net.deep[::3], [(f"deep{i}", widths[i + 1], widths[i])
                                     for i in range(len(deep))])
        assert_drawn([net.head], [("head", 2, 4 + widths[-1])])


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        net = nn.build_dcnv2(6, 2, [8, 4], 0.25, out_dim=3, seed=14)
        norm = (np.random.default_rng(0).normal(size=6), np.abs(np.random.default_rng(1).normal(size=6)) + 0.5)
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nn.Checkpoint(network=net, loss_kind="ziln", norm=norm))
        loaded = nn.load_checkpoint(path)
        assert loaded.loss_kind == "ziln"
        assert loaded.network.arch == "dcnv2"
        assert loaded.network.input_dim == 6
        for a, b in zip(net.params(), loaded.network.params()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.norm[0], norm[0])
        assert np.array_equal(loaded.norm[1], norm[1])
        x = np.random.default_rng(2).normal(size=(3, 6))
        ya, _ = net.forward(x, "eval")
        yb, _ = loaded.network.forward(x, "eval")
        assert np.array_equal(ya, yb)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)
