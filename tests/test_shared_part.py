"""The part of a pass that every MC trial shares runs once per block.

A DCNv2's cross branch holds no dropout, so its output on a block is the
same in every trial: mcd_predict takes it once per block from
Network.shared_part and hands it to each trial's forward, with the bits a
trial computing it itself would give. No pass writes it, and a train
pass computes its own."""

import numpy as np
import pytest

from ltvmcd import losses, mcd, nn
from ltvmcd.data import Dataset
from ltvmcd.mcd import McdConfig, mcd_predict
from ltvmcd.numcore import RngStream


def dataset(n, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset([f"u{i}" for i in range(n)], rng.normal(size=(n, dim)), np.zeros(n))


def dcnv2(n_cross, loss_kind="log_mse", dropout=0.3):
    return nn.build_dcnv2(3, n_cross, [8, 4], dropout, out_dim=losses.head_width(loss_kind),
                          seed=4)


def test_cross_layers_run_once_per_block_not_once_per_trial(monkeypatch):
    net, ds, trials = dcnv2(2), dataset(40), 5
    calls = []
    forward = nn.Cross.forward

    def counted(self, x0, xl):
        calls.append(len(x0))
        return forward(self, x0, xl)

    monkeypatch.setattr(nn.Cross, "forward", counted)
    mcd_predict(net, ds, McdConfig(trials=trials, master_seed=3, batch_size=7))
    blocks = len(mcd._blocks(ds.n, 7))
    assert len(calls) == len(net.cross) * blocks
    assert sum(calls) == len(net.cross) * ds.n


@pytest.mark.parametrize("n_cross", [0, 2])
@pytest.mark.parametrize("loss_kind", ["log_mse", "ziln"])
@pytest.mark.parametrize("batch_size", [0, 7, 1000])
def test_trial_columns_equal_a_fresh_pass_per_chunk(batch_size, loss_kind, n_cross):
    net, ds, seed = dcnv2(n_cross, loss_kind), dataset(2100), 11
    result = mcd_predict(net, ds, McdConfig(trials=3, master_seed=seed, batch_size=batch_size),
                         loss_kind=loss_kind, keep_trials=True)
    for j in range(3):
        for start, stop in mcd._blocks(ds.n, batch_size):
            out, _ = net.forward(ds.features[start:stop], "mc_sample",
                                 RngStream(seed, f"mcd/{j}"))
            expected = losses.point_fn(loss_kind)(out)
            assert result.trials[start:stop, j].tobytes() == expected.tobytes()


def test_no_pass_writes_the_features_or_the_shared_array(monkeypatch):
    net, ds = dcnv2(2), dataset(50)
    before = ds.features.tobytes()
    shared = []
    shared_part = nn.Network.shared_part

    def kept(self, x):
        part = shared_part(self, x)
        shared.append((part, part.tobytes()))
        return part

    monkeypatch.setattr(nn.Network, "shared_part", kept)
    mcd_predict(net, ds, McdConfig(trials=4, master_seed=2, batch_size=16))
    assert ds.features.tobytes() == before
    assert len(shared) == len(mcd._blocks(ds.n, 16))
    assert all(part.tobytes() == copy for part, copy in shared)


@pytest.mark.parametrize("mode", ["mc_sample", "eval"])
def test_a_pass_given_the_shared_part_gives_the_same_bits(mode):
    net, x = dcnv2(2), dataset(30).features
    shared = net.shared_part(x)
    copy = shared.copy()
    given, _ = net.forward(x, mode, RngStream(1, "mcd/0"), shared=shared)
    own, _ = net.forward(x, mode, RngStream(1, "mcd/0"))
    assert given.tobytes() == own.tobytes()
    assert shared.tobytes() == copy.tobytes()


@pytest.mark.parametrize("net", [nn.build_mlp(3, [8], 0.3, seed=1), dcnv2(0)],
                         ids=["mlp", "dcnv2_no_cross"])
def test_a_net_without_cross_layers_shares_nothing(net):
    assert net.shared_part(dataset(5).features) is None


def test_a_train_pass_refuses_a_shared_part():
    net, x = dcnv2(2), dataset(8).features
    with pytest.raises(ValueError, match="train pass"):
        net.forward(x, "train", RngStream(0, "train"), shared=net.shared_part(x))
