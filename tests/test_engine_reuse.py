"""The MCD engine reuses work without changing a bit.

sweep-trials runs max(grid) trials per rep and takes each smaller T's
moments from the first T trials of that run, block by block, in one
mcd_predict call with at=; its rows must equal a per-T loop of
mcd_predict calls. Eval and mc_sample passes work in place on arrays the
pass itself created; their outputs must equal an out-of-place reference,
the caller's input must stay byte-unchanged, and the train tape must
give the gradients the out-of-place intermediates give."""

import csv
import tracemalloc

import numpy as np
import pytest

from ltvmcd import cli, data, metrics, nn
from ltvmcd.mcd import McdConfig, mcd_predict
from ltvmcd.numcore import RngStream
from test_contracts import run, small_dataset


# -- sweep reuse -------------------------------------------------------------

def per_t_rows(ckpt, ds, grid, reps, seed, k, batch_size):
    """The sweep table as one mcd_predict call per (T, rep) computes it."""
    rows = []
    for t in grid:
        ginis, mapes = [], []
        for rep in range(reps):
            cfg = McdConfig(trials=t, master_seed=seed + rep, batch_size=batch_size)
            result = mcd_predict(ckpt.network, ds, cfg, loss_kind=ckpt.loss_kind)
            raw = cli._raw_space(ckpt.loss_kind, result.mean, result.ids)
            ginis.append(metrics.normalized_gini(raw, ds.labels))
            mapes.append(metrics.top_k_mape(raw, ds.labels, k))
        stats = (*cli._mean_std(ginis), *cli._mean_std(mapes))
        rows.append([str(t), *(repr(float(v)) for v in stats)])
    return rows


def raw_scale(net):
    """net with its output bias moved to about log(labels), so that a last
    bit of a log-space mean shows in top-k MAPE."""
    net.params()[-1][:] = 3.5
    return net


SWEEPS = {
    # name: (network, grid, reps, batch size)
    "dcnv2_stochastic_chunked": (raw_scale(nn.build_dcnv2(3, 2, [8, 4], 0.3, seed=4)),
                                 "4,1,2", 3, 7),
    # one eval pass repeated t times does not average back to itself
    "mlp_dropout0_whole_batch": (raw_scale(nn.build_mlp(3, [8], 0.0, seed=5)), "3,1,5", 2, 0),
    "mlp_dropout0_chunked": (raw_scale(nn.build_mlp(3, [8], 0.0, seed=5)), "3,1,5", 2, 16),
}


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_rows_equal_a_per_t_loop(tmp_path, monkeypatch, case):
    net, grid, reps, batch = SWEEPS[case]
    ds = small_dataset()
    data.save_csv(ds, tmp_path / "d.csv")
    nn.save_checkpoint(tmp_path / "m.ckpt", nn.Checkpoint(network=net))
    ckpt = nn.load_checkpoint(tmp_path / "m.ckpt")

    passes = {"mc_sample": 0, "eval": 0}
    forward = nn.Network.forward

    def counted(self, x, mode="eval", rng=None, **kwargs):
        if len(x):  # the checkpoint load runs one zero-row pass
            passes[mode] += 1
        return forward(self, x, mode, rng, **kwargs)

    monkeypatch.setattr(nn.Network, "forward", counted)
    assert run("sweep-trials", "--model", tmp_path / "m.ckpt", "--data", tmp_path / "d.csv",
               "--grid", grid, "--reps", reps, "--k", 0.5, "--seed", 6,
               "--batch-size", batch, "--out", tmp_path / "s.csv") == 0
    chunks = -(-ds.n // batch) if batch else 1
    t_max = max(int(t) for t in grid.split(","))
    if net.stochastic():
        assert passes == {"mc_sample": reps * t_max * chunks, "eval": 0}
    else:
        assert passes == {"mc_sample": 0, "eval": reps * chunks}
    monkeypatch.undo()

    with open(tmp_path / "s.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    grid_ints = [int(t) for t in grid.split(",")]
    assert rows == per_t_rows(ckpt, data.load_csv(tmp_path / "d.csv"), grid_ints,
                              reps, 6, 0.5, batch)


def test_sweep_holds_a_block_of_trials_not_the_matrix(tmp_path):
    n, grid = 10_000, "1,16,256"
    ds = small_dataset(n=n)
    data.save_csv(ds, tmp_path / "d.csv")
    net = nn.build_mlp(ds.dim, [8], 0.3, seed=1)
    nn.save_checkpoint(tmp_path / "m.ckpt", nn.Checkpoint(network=net))
    tracemalloc.start()
    try:
        assert cli.main(["sweep-trials", "--model", str(tmp_path / "m.ckpt"),
                         "--data", str(tmp_path / "d.csv"), "--grid", grid, "--reps", "2",
                         "--out", str(tmp_path / "s.csv")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * 256 * 8  # the n x max(grid) trial matrix alone would need this much


@pytest.mark.parametrize("dropout", [0.3, 0.0])
def test_first_t_is_the_run_at_t(dropout):
    net = nn.build_mlp(3, [8], dropout, seed=2)
    ds = small_dataset()
    counts = (1, 3, 6)
    results = mcd_predict(net, ds, McdConfig(trials=6, master_seed=1, batch_size=9),
                          keep_trials=True, at=counts)
    assert isinstance(results, tuple) and len(results) == len(counts)
    for t, got in zip(counts, results):
        want = mcd_predict(net, ds, McdConfig(trials=t, master_seed=1, batch_size=9),
                           keep_trials=True)
        assert got.ids == want.ids
        for name in ("mean", "std", "n_trials", "trials"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for bad in ((7,), (0,), (3, 7)):
        with pytest.raises(ValueError):
            mcd_predict(net, ds, McdConfig(trials=6), at=bad)


# -- in-place inference passes -----------------------------------------------

def reference_pass(net, x, mode, rng):
    """Out-of-place forward, layer by layer, returning (output, tape) in
    the layout a train tape has."""

    def stack(layers, h):
        caches = []
        for layer in layers:
            if layer.kind == "dense":
                caches.append(h)
                h = h @ layer.w.T + layer.b
            elif layer.kind == "relu":
                caches.append(h)
                h = np.maximum(h, 0.0)
            elif mode == "eval" or layer.p == 0.0:
                caches.append(None)
            else:
                mask = layer.sample_mask(h.shape[1], rng)
                caches.append(mask)
                h = h * mask
        return h, caches

    if net.arch == "mlp":
        y, caches = stack(net.stack, x)
        branches = {"stack": caches}
    else:
        xl, cross = x, []
        for layer in net.cross:
            u = xl @ layer.w.T + layer.b
            cross.append((x, xl, u))
            xl = x * u + xl
        h, deep = stack(net.deep, x)
        z = np.concatenate([xl, h], axis=1)
        y = z @ net.head.w.T + net.head.b
        branches = {"cross": cross, "deep": deep, "head": z}
    return y, {"mode": mode, "out_shape": y.shape, **branches}


def mlp_from(stack_head, d=4, seed=0):
    """An MLP whose stack starts with stack_head, then dense/relu/dropout/dense."""
    init = RngStream(seed, "init")
    w1 = init.child("w1").normal(6 * d).reshape(6, d)
    w2 = init.child("w2").normal(6).reshape(1, 6)
    return nn.Network("mlp", d, stack=[*stack_head, nn.Dense(w1, np.full(6, 0.1)), nn.Relu(),
                                       nn.Dropout(0.4), nn.Dense(w2, np.full(1, -0.2))])


NETWORKS = {
    "mlp_leading_dropout": mlp_from([nn.Dropout(0.5), nn.Relu()]),
    "mlp_leading_dropout0": mlp_from([nn.Dropout(0.0), nn.Relu()]),
    "dcnv2": nn.build_dcnv2(4, 2, [6, 3], 0.4, seed=3),
}


@pytest.mark.parametrize("mode", ["eval", "mc_sample", "train"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_inference_pass_leaves_the_input_and_the_bits_alone(name, mode):
    net = NETWORKS[name]
    x = np.random.default_rng(1).normal(size=(9, net.input_dim))
    before = x.tobytes()
    y, tape = net.forward(x, mode, RngStream(7, "pass"))
    assert x.tobytes() == before
    ref_y, ref_tape = reference_pass(net, x.copy(), mode, RngStream(7, "pass"))
    assert y.tobytes() == ref_y.tobytes()
    if mode != "train":
        assert set(tape) == {"mode", "out_shape"}
        with pytest.raises(ValueError, match="train-mode tape"):
            net.backward(tape, np.ones_like(y))
        return
    g = np.random.default_rng(2).normal(size=y.shape)
    grads, gx = net.backward(tape, g)
    ref_grads, ref_gx = net.backward(ref_tape, g)
    assert gx.tobytes() == ref_gx.tobytes()
    assert len(grads) == len(ref_grads)
    for a, b in zip(grads, ref_grads):
        assert a.tobytes() == b.tobytes()


def test_mcd_chunks_leave_the_dataset_alone():
    ds = small_dataset()
    before = ds.features.tobytes()
    net = mlp_from([nn.Dropout(0.5), nn.Relu()], d=ds.dim)
    mcd_predict(net, ds, McdConfig(trials=3, batch_size=7))
    assert ds.features.tobytes() == before
