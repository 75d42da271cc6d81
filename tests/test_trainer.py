import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from ltvmcd import losses, nn, trainer
from ltvmcd.data import Dataset
from ltvmcd.numcore import RngStream, from_json


def linear_log_task(n=256, d=4, seed=0):
    """Noiseless y = exp(w.x) - 1, so log1p(y) is exactly linear in x."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    w = np.array([0.5, 0.3, 0.2, 0.4])
    return Dataset([f"r{i}" for i in range(n)], x, np.expm1(x @ w))


class TestTrainConfig:
    def test_defaults_round_trip(self):
        cfg = trainer.TrainConfig()
        assert from_json(trainer.TrainConfig, asdict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            from_json(trainer.TrainConfig, {"epochs": 3, "momentum": 0.9})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(val_fraction=1.0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(loss="huber")


class TestTrain:
    def test_zero_lr_keeps_params(self):
        ds = linear_log_task(64)
        net = nn.build_mlp(4, [6], 0.2, seed=1)
        before = [p.copy() for p in net.params()]
        cfg = trainer.TrainConfig(epochs=1, batch_size=16, learning_rate=0.0,
                                  master_seed=1, patience=None)
        net, _ = trainer.train(net, ds, cfg)
        for p, q in zip(net.params(), before):
            assert np.array_equal(p, q)

    def test_same_seed_bit_identical(self):
        ds = linear_log_task(128)
        cfg = trainer.TrainConfig(epochs=5, batch_size=32, master_seed=9)
        net_a, hist_a = trainer.train(nn.build_mlp(4, [8], 0.3, seed=9), ds, cfg)
        net_b, hist_b = trainer.train(nn.build_mlp(4, [8], 0.3, seed=9), ds, cfg)
        assert hist_a == hist_b
        for pa, pb in zip(net_a.params(), net_b.params()):
            assert np.array_equal(pa, pb)

    def test_converges_on_noiseless_linear_log_task(self):
        ds = linear_log_task()
        net = nn.build_mlp(4, [16], 0.0, seed=5)
        cfg = trainer.TrainConfig(epochs=200, batch_size=32, learning_rate=1e-2,
                                  master_seed=5, patience=None)
        net, hist = trainer.train(net, ds, cfg)
        assert min(h[1] for h in hist) < 1e-3

    def test_smoothed_loss_non_increasing(self):
        ds = linear_log_task()
        net = nn.build_mlp(4, [16], 0.0, seed=5)
        cfg = trainer.TrainConfig(epochs=200, batch_size=32, learning_rate=1e-2,
                                  master_seed=5, patience=None)
        _, hist = trainer.train(net, ds, cfg)
        tr = [h[1] for h in hist]
        windows = [np.mean(tr[i : i + 10]) for i in range(0, len(tr), 10)]
        assert all(b <= a for a, b in zip(windows, windows[1:]))

    def test_val_split_disjoint_exhaustive_and_stable(self):
        # the validation rows come from the documented stream label
        n, seed, frac = 100, 3, 0.1
        perm1 = RngStream(seed, "train/val_split").permutation(n)
        perm2 = RngStream(seed, "train/val_split").permutation(n)
        assert np.array_equal(perm1, perm2)
        n_val = int(round(n * frac))
        val, tr = set(perm1[:n_val].tolist()), set(perm1[n_val:].tolist())
        assert val.isdisjoint(tr)
        assert val | tr == set(range(n))

    def test_patience_stops_early_and_restores_best(self):
        ds = linear_log_task(64)
        net = nn.build_mlp(4, [6], 0.0, seed=2)
        # absurd learning rate makes validation loss bounce around
        cfg = trainer.TrainConfig(epochs=100, batch_size=16, learning_rate=0.5,
                                  master_seed=2, patience=2)
        net, hist = trainer.train(net, ds, cfg)
        assert len(hist) < 100

    def test_history_covers_every_epoch_without_patience(self):
        ds = linear_log_task(64)
        net = nn.build_mlp(4, [6], 0.1, seed=2)
        cfg = trainer.TrainConfig(epochs=7, batch_size=16, master_seed=2, patience=None)
        _, hist = trainer.train(net, ds, cfg)
        assert [h[0] for h in hist] == list(range(7))

    def test_head_width_mismatch_rejected(self):
        ds = linear_log_task(32)
        net = nn.build_mlp(4, [6], 0.0, seed=1)  # width-1 head
        cfg = trainer.TrainConfig(epochs=1, batch_size=8, loss="ziln")
        with pytest.raises(ValueError):
            trainer.train(net, ds, cfg)


class TestBoundedMemory:
    """train gathers each batch from the dataset and runs the validation
    pass in mcd._blocks blocks: the bits of whole-batch passes, without
    holding a copy of either split."""

    @pytest.mark.parametrize("n_val", [2049, 5157])
    @pytest.mark.parametrize("arch", ["mlp", "dcnv2"])
    @pytest.mark.parametrize("loss", ["log_mse", "ziln"])
    def test_validation_loss_is_the_whole_batch_loss(self, n_val, arch, loss):
        n = 2 * n_val
        rng = np.random.default_rng(n_val)
        x = rng.normal(size=(n, 10))
        labels = np.where(rng.random(n) < 0.5, 0.0, np.exp(x[:, 0]))
        ds = Dataset([f"r{i}" for i in range(n)], x, labels)
        width = losses.head_width(loss)
        if arch == "mlp":
            net = nn.build_mlp(10, [32, 16], 0.2, out_dim=width, seed=3)
        else:
            net = nn.build_dcnv2(10, 2, [32, 16], 0.2, out_dim=width, seed=3)
        cfg = trainer.TrainConfig(epochs=1, batch_size=256, master_seed=4, loss=loss,
                                  val_fraction=0.5, patience=None)
        net, hist = trainer.train(net, ds, cfg)
        val_idx = RngStream(4, "train/val_split").permutation(n)[:n_val]
        out, _ = net.forward(x[val_idx], "eval")
        assert hist[-1][2] == losses.loss_fn(loss)(out, ds.labels[val_idx]).value

    def test_peak_memory_stays_below_one_copy_of_the_features(self):
        n, d = 20_000, 50
        rng = np.random.default_rng(1)
        x = rng.normal(size=(n, d))
        ds = Dataset([f"r{i}" for i in range(n)], x, np.exp(rng.normal(size=n)))
        net = nn.build_mlp(d, [128, 64, 32], 0.2, seed=4)
        cfg = trainer.TrainConfig(epochs=1, batch_size=512, patience=None)
        tracemalloc.start()
        try:
            trainer.train(net, ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes  # a copy of the 90% train split alone would take 0.9x


class TestGradCheck:
    @pytest.mark.parametrize("arch,loss", [
        ("mlp", "log_mse"),
        ("dcnv2", "log_mse"),
        ("mlp", "ziln"),
        ("dcnv2", "ziln"),
    ])
    def test_architectures_and_losses(self, arch, loss):
        from ltvmcd.losses import head_width

        width = head_width(loss)
        if arch == "mlp":
            net = nn.build_mlp(5, [6, 4], 0.3, out_dim=width, seed=13)
        else:
            net = nn.build_dcnv2(5, 2, [6, 4], 0.3, out_dim=width, seed=13)
        report = trainer.grad_check(net, loss_kind=loss)
        assert report.passed, f"{arch}/{loss}: {report.worst_param} at {report.max_rel_err}"
        assert report.max_rel_err < 1e-4

    def test_report_names_every_param(self):
        net = nn.build_mlp(4, [5], 0.0, seed=0)
        report = trainer.grad_check(net)
        assert set(report.per_param) == {name for name, _ in net.named_params()}
