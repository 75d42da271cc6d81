"""File-level contracts shared by every command: artifacts get the mode the
umask implies, and a malformed checkpoint, predictions file or an
out-of-range sweep ends in exit 1 with one `ltvmcd: error:` line."""

import csv
import json
import math
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmcd import cli, data, nn


def run(*argv):
    return cli.main([str(a) for a in argv])


def run_fails(capsys, *argv):
    """Run a command that must fail cleanly; returns its one error line."""
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ltvmcd: error: "), err
    return lines[0]


def small_dataset(n=40, dim=3):
    rng = np.random.default_rng(0)
    labels = np.where(np.arange(n) % 2 == 0, rng.uniform(1.0, 100.0, n), 0.0)
    return data.Dataset([f"u{i}" for i in range(n)], rng.normal(size=(n, dim)), labels)


# -- the one atomic writer ---------------------------------------------------

@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_artifacts_follow_umask(tmp_path, mask):
    old = os.umask(mask)
    try:
        (tmp_path / "synth.json").write_text(json.dumps(
            {"n": 300, "dim": 4, "zero_inflation": 0.6, "master_seed": 1}))
        (tmp_path / "train.json").write_text(json.dumps(
            {"train": {"epochs": 1, "batch_size": 64},
             "model": {"hidden_dims": [4]}, "test_fraction": 0.25}))
        assert run("gen-data", "--config", tmp_path / "synth.json",
                   "--out", tmp_path / "data.csv") == 0
        assert run("train", "--data", tmp_path / "data.csv", "--model", "mlp",
                   "--config", tmp_path / "train.json", "--out", tmp_path / "m.ckpt",
                   "--test-out", tmp_path / "test.csv") == 0
        assert run("predict", "--model", tmp_path / "m.ckpt", "--data", tmp_path / "test.csv",
                   "--trials", 2, "--out", tmp_path / "p.csv") == 0
        assert run("evaluate", "--preds", tmp_path / "p.csv", "--data", tmp_path / "test.csv",
                   "--k", 0.2, "--out", tmp_path / "r.json") == 0
    finally:
        os.umask(old)
    written = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    expected = {"data.csv", "data.csv.manifest.json", "m.ckpt", "m.ckpt.history.csv",
                "m.ckpt.manifest.json", "test.csv", "p.csv", "p.csv.manifest.json",
                "r.json", "r.curve.csv", "r.json.manifest.json"}
    assert expected <= set(written)
    assert {name: written[name] for name in expected} == dict.fromkeys(expected, 0o666 & ~mask)


def test_atomic_open_keeps_old_content_on_error(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with data.atomic_open(target) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


# -- malformed checkpoints ---------------------------------------------------

def checkpoint_doc(arch):
    if arch == "mlp":
        net = nn.build_mlp(3, [4], 0.3, seed=1)
    else:
        net = nn.build_dcnv2(3, 1, [4], 0.3, seed=1)
    norm = (np.zeros(3), np.ones(3))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        nn.save_checkpoint(path, nn.Checkpoint(network=net, norm=norm))
        with open(path) as fh:
            return json.load(fh)


DOCS = {arch: checkpoint_doc(arch) for arch in ("mlp", "dcnv2")}


def without_arch(doc):
    del doc["arch"]


def without_kind(doc):
    del doc["stack"][0]["kind"]


def unknown_arch(doc):
    doc["arch"] = "resnet"


def short_norm(doc):
    doc["norm"]["mean"] = [0.0, 0.0]


@pytest.mark.parametrize("breakage, needle", [
    (without_arch, "missing key 'arch'"),
    (without_kind, "missing key 'kind'"),
    (unknown_arch, "unknown architecture 'resnet'"),
    (short_norm, "norm"),
    pytest.param(lambda doc: doc["stack"][-1].update(w=doc["stack"][-1]["w"] * 3,
                                                     b=doc["stack"][-1]["b"] * 3),
                 "head width 3 does not fit loss 'log_mse'", id="ziln_head_as_log_mse"),
    pytest.param(lambda doc: [row.pop() for row in doc["stack"][0]["w"]],
                 "matmul shape mismatch", id="dropped_weight_column"),
    # a value of the wrong JSON type, which a float() or int() would accept
    pytest.param(lambda doc: doc.update(input_dim=3.9), "input_dim must be an integer, got 3.9",
                 id="input_dim_float"),
    pytest.param(lambda doc: doc.update(input_dim="3"), 'input_dim must be an integer, got "3"',
                 id="input_dim_string"),
    pytest.param(lambda doc: doc.update(version=True), "unsupported checkpoint version True",
                 id="version_bool"),
    pytest.param(lambda doc: doc.update(version=1.0), "unsupported checkpoint version 1.0",
                 id="version_float"),
    pytest.param(lambda doc: doc["stack"][2].update(p=False), "stack[2].p must be a number, got false",
                 id="dropout_p_bool"),
    pytest.param(lambda doc: doc["stack"][0]["w"][0].__setitem__(1, "0.1"),
                 'stack[0].w must be a number, got "0.1"', id="weight_string"),
    pytest.param(lambda doc: doc["stack"][0]["w"][1].__setitem__(0, True),
                 "stack[0].w must be a number, got true", id="weight_bool"),
    pytest.param(lambda doc: doc["stack"][3]["b"].__setitem__(0, "0"),
                 'stack[3].b must be a number, got "0"', id="bias_string"),
    pytest.param(lambda doc: doc["norm"]["mean"].__setitem__(2, "0.0"),
                 'norm.mean must be a number, got "0.0"', id="norm_mean_string"),
    pytest.param(lambda doc: doc["norm"]["std"].__setitem__(0, "1"),
                 'norm.std must be a number, got "1"', id="norm_std_string"),
])
def test_malformed_checkpoint_exits_1(tmp_path, capsys, breakage, needle):
    doc = json.loads(json.dumps(DOCS["mlp"]))
    breakage(doc)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=str(ckpt)):
        nn.load_checkpoint(ckpt)
    data.save_csv(small_dataset(), tmp_path / "d.csv")
    line = run_fails(capsys, "predict", "--model", ckpt, "--data", tmp_path / "d.csv",
                     "--trials", 2, "--out", tmp_path / "p.csv")
    assert str(ckpt) in line and needle in line
    assert not (tmp_path / "p.csv").exists()


def set_value(*path):
    """A breakage that sets the value at path, the last step being the value."""
    *steps, key, value = path

    def breakage(doc):
        node = doc
        for step in steps:
            node = node[step]
        node[key] = value
    return breakage


@pytest.mark.parametrize("arch, breakage, message", [
    ("mlp", set_value("stack", 3, "w", 0, 1, math.inf), "stack[3].w must be finite"),
    ("mlp", set_value("stack", 0, "b", 2, math.nan), "stack[0].b must be finite"),
    ("dcnv2", set_value("cross", 0, "w", 1, 0, -math.inf), "cross[0].w must be finite"),
    ("dcnv2", set_value("head", "b", 0, math.nan), "head.b must be finite"),
    ("mlp", set_value("norm", "mean", 1, math.inf), "norm.mean must be finite"),
    ("mlp", set_value("norm", "mean", 0, math.nan), "norm.mean must be finite"),
    ("mlp", set_value("norm", "std", 1, -1.0), "norm.std must be finite and > 0"),
    ("mlp", set_value("norm", "std", 1, 0.0), "norm.std must be finite and > 0"),
    ("mlp", set_value("norm", "std", 2, math.inf), "norm.std must be finite and > 0"),
    ("dcnv2", set_value("norm", "std", 0, math.nan), "norm.std must be finite and > 0"),
])
def test_checkpoint_with_a_bad_number_names_its_key(tmp_path, capsys, arch, breakage, message):
    doc = json.loads(json.dumps(DOCS[arch]))
    breakage(doc)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text(json.dumps(doc))  # NaN, Infinity and -Infinity, as json writes them
    with pytest.raises(ValueError) as err:
        nn.load_checkpoint(ckpt)
    assert str(err.value) == f"{ckpt}: bad checkpoint: {message}"
    data.save_csv(small_dataset(), tmp_path / "d.csv")
    line = run_fails(capsys, "predict", "--model", ckpt, "--data", tmp_path / "d.csv",
                     "--trials", 2, "--out", tmp_path / "p.csv")
    assert line == f"ltvmcd: error: {ckpt}: bad checkpoint: {message}"
    assert not (tmp_path / "p.csv").exists()


def key_paths(node, prefix=()):
    """Every (path to a dict, key) pair in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix, key
            yield from key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, prefix + (i,))


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=10**400),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["mlp", "dcnv2", "dense", "relu", "dropout", "cross", "ziln"]),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "w", "b", "p", "mean"]), st.integers(), max_size=2),
)


@st.composite
def broken_docs(draw):
    doc = json.loads(json.dumps(DOCS[draw(st.sampled_from(sorted(DOCS)))]))
    parent_path, key = draw(st.sampled_from(list(key_paths(doc))))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(broken_docs())
def test_broken_checkpoint_loads_or_raises_value_error(doc):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.ckpt")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            assert isinstance(nn.load_checkpoint(path), nn.Checkpoint)
        except (ValueError, OSError):
            pass


# -- bad prediction rows -----------------------------------------------------

@pytest.mark.parametrize("mean, std, n_trials", [
    ("1.0", "0.5", "0"),
    ("1.0", "0.5", "-3"),
    ("1.0", "-0.5", "4"),
    ("nan", "0.5", "4"),
    ("1.0", "inf", "4"),
    ("-inf", "0.5", "4"),
    pytest.param("1.0", "0.5", str(2**63), id="1.0-0.5-2**63"),
    pytest.param("1.0", "0.5", "1" + "0" * 400, id="1.0-0.5-10**400"),
])
def test_bad_prediction_row_exits_1(tmp_path, capsys, mean, std, n_trials):
    ds = small_dataset(n=3)
    data.save_csv(ds, tmp_path / "d.csv")
    with open(tmp_path / "p.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "mean", "std", "n_trials"])
        w.writerow(["u0", "1.0", "0.5", "4"])
        w.writerow(["u1", mean, std, n_trials])
        w.writerow(["u2", "1.0", "0.5", "4"])
    line = run_fails(capsys, "evaluate", "--preds", tmp_path / "p.csv",
                     "--data", tmp_path / "d.csv", "--out", tmp_path / "r.json")
    assert "line 3:" in line
    assert not (tmp_path / "r.json").exists()


# -- sweep-trials out of range -----------------------------------------------

def test_sweep_overflow_exits_1(tmp_path, capsys):
    ds = small_dataset()
    data.save_csv(ds, tmp_path / "d.csv")
    net = nn.build_mlp(ds.dim, [8], 0.3, seed=2)
    net.stack[-1].b[:] = 400.0  # expm1 of the log-space mean is near 1e173
    nn.save_checkpoint(tmp_path / "m.ckpt", nn.Checkpoint(network=net))
    line = run_fails(capsys, "sweep-trials", "--model", tmp_path / "m.ckpt",
                     "--data", tmp_path / "d.csv", "--grid", "1,4", "--reps", 3,
                     "--out", tmp_path / "s.csv")
    assert "out of range" in line
    assert not (tmp_path / "s.csv").exists()
