"""Bad command-line inputs end in exit 1 with one `ltvmcd: error:` line and
no output file, never in a traceback or a silently different run: every
JSON config value goes through numcore.from_json, which checks it against
its dataclass field's annotation. Also: predict, sweep-trials and compare
refuse a mean whose expm1 overflows, JSON nested too deeply is an error
naming the file, a MemoryError is one line, a trial count too large fails
at its first array, a feature whose train-split std overflows, a ZILN
prediction or gen-data amount that overflows and an overflow inside a
network are one line with no numpy warning, --z-grid is bounded, and
the manifest records the resolved settings."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltvmcd import cli, data, nn
from ltvmcd.numcore import from_json
from test_contracts import run, run_fails, small_dataset


def fails_cleanly(capsys, directory, *argv):
    """run_fails, and the command left no file behind in directory."""
    before = sorted(os.listdir(directory))
    line = run_fails(capsys, *argv)
    assert sorted(os.listdir(directory)) == before
    return line


@pytest.fixture
def ws(tmp_path):
    data.save_csv(small_dataset(), tmp_path / "d.csv")
    return tmp_path


# -- gen-data and train configs ----------------------------------------------

GEN_DATA_CONFIGS = {
    "n_float": ({"n": 10.5, "dim": 2}, "config.n must be an integer, got 10.5"),
    "dim_string": ({"n": 10, "dim": "2"}, 'config.dim must be an integer, got "2"'),
    "n_bool": ({"n": True, "dim": 2}, "config.n must be an integer, got true"),
    "master_seed_string": ({"n": 10, "dim": 2, "master_seed": "7"},
                           'config.master_seed must be an integer, got "7"'),
    "n_missing": ({"dim": 2}, "config.n is required"),
}


@pytest.mark.parametrize("case", sorted(GEN_DATA_CONFIGS))
def test_gen_data_rejects_a_mistyped_config(ws, capsys, case):
    doc, message = GEN_DATA_CONFIGS[case]
    (ws / "s.json").write_text(json.dumps(doc))
    line = fails_cleanly(capsys, ws, "gen-data", "--config", ws / "s.json",
                         "--out", ws / "g.csv")
    assert line == f"ltvmcd: error: {ws / 's.json'}: {message}"


TRAIN_CONFIGS = {
    "train_null": ({"train": None}, "config.train must be an object, got null"),
    "model_null": ({"model": None}, "config.model must be an object, got null"),
    "hidden_dims_int": ({"model": {"hidden_dims": 5}},
                        "config.model.hidden_dims must be a list, got 5"),
    "epochs_string": ({"train": {"epochs": "3"}},
                      'config.train.epochs must be an integer, got "3"'),
    "learning_rate_string": ({"train": {"learning_rate": "x"}},
                             'config.train.learning_rate must be a finite number, got "x"'),
    "epochs_bool": ({"train": {"epochs": True}},
                    "config.train.epochs must be an integer, got true"),
    "hidden_dims_float": ({"model": {"hidden_dims": [4.7]}},
                          "config.model.hidden_dims[0] must be an integer, got 4.7"),
    "dropout_string": ({"model": {"dropout": "0.2"}},
                       'config.model.dropout must be a finite number, got "0.2"'),
    "test_fraction_string": ({"test_fraction": "0.2"},
                             'config.test_fraction must be a finite number, got "0.2"'),
    "train_loss": ({"train": {"loss": "ziln", "epochs": 1}},
                   "config.train: unknown keys ['loss']"),
}


@pytest.mark.parametrize("case", sorted(TRAIN_CONFIGS))
def test_train_rejects_a_mistyped_config(ws, capsys, case):
    doc, message = TRAIN_CONFIGS[case]
    (ws / "t.json").write_text(json.dumps(doc))
    line = fails_cleanly(capsys, ws, "train", "--data", ws / "d.csv", "--model", "mlp",
                         "--config", ws / "t.json", "--out", ws / "m.ckpt")
    assert line == f"ltvmcd: error: {ws / 't.json'}: {message}"


def test_compare_rejects_a_loss_in_its_config(ws, capsys):
    (ws / "t.json").write_text(json.dumps({"train": {"loss": "log_mse", "epochs": 1}}))
    line = fails_cleanly(capsys, ws, "compare", "--data", ws / "d.csv",
                         "--config", ws / "t.json", "--trials", 2, "--out", ws / "c.csv")
    assert line.endswith("config.train: unknown keys ['loss']")


def test_config_nested_too_deeply_names_the_file(ws, capsys):
    (ws / "s.json").write_text("[" * 100_000)
    line = fails_cleanly(capsys, ws, "gen-data", "--config", ws / "s.json",
                         "--out", ws / "g.csv")
    assert line == f"ltvmcd: error: {ws / 's.json'}: JSON nested too deeply"


def test_checkpoint_nested_too_deeply_names_the_file(ws, capsys):
    (ws / "m.ckpt").write_text("[" * 100_000)
    line = fails_cleanly(capsys, ws, "predict", "--model", ws / "m.ckpt",
                         "--data", ws / "d.csv", "--out", ws / "p.csv")
    assert line.startswith(f"ltvmcd: error: {ws / 'm.ckpt'}: bad checkpoint:")


# -- memory ------------------------------------------------------------------

def test_an_allocation_too_large_is_one_line(ws, capsys):
    (ws / "s.json").write_text(json.dumps({"n": 10**14, "dim": 10}))
    line = fails_cleanly(capsys, ws, "gen-data", "--config", ws / "s.json",
                         "--out", ws / "g.csv")
    assert "Unable to allocate" in line


def test_a_memory_error_without_a_message_names_its_type(ws, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setattr(data, "generate_synthetic", exhausted)
    (ws / "s.json").write_text(json.dumps({"n": 10, "dim": 2}))
    line = fails_cleanly(capsys, ws, "gen-data", "--config", ws / "s.json",
                         "--out", ws / "g.csv")
    assert line == "ltvmcd: error: MemoryError"


@pytest.mark.parametrize("command", ["predict", "sweep-trials"])
def test_a_trial_count_too_large_fails_at_its_first_array(ws, command):
    """The trial buffer is allocated before any per-trial state, so 10**12
    trials fail at once, naming the array; the child runs under an address
    space cap, so a program that grew per-trial lists first would end in a
    bare MemoryError instead of taking the machine's memory."""
    nn.save_checkpoint(ws / "m.ckpt", nn.Checkpoint(network=nn.build_mlp(3, [8], 0.3, seed=2)))
    trials = ["--trials", 10**12] if command == "predict" else ["--grid", f"1,{10**12}"]
    argv = [command, "--model", ws / "m.ckpt", "--data", ws / "d.csv", *trials,
            "--out", ws / "p.csv"]
    cap = 1536 << 20
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from ltvmcd.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("ltvmcd: error: Unable to allocate"), proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert sorted(os.listdir(ws)) == ["d.csv", "m.ckpt"]


# -- predict: a mean whose expm1 overflows -----------------------------------

def test_predict_names_the_first_id_whose_mean_overflows_expm1(ws, capsys):
    ds = small_dataset()
    net = nn.build_mlp(ds.dim, [], 0.0)  # one dense layer, no dropout
    net.stack[0].w[:] = [[1000.0, 0.0, 0.0]]
    net.stack[0].b[:] = 0.0
    nn.save_checkpoint(ws / "m.ckpt", nn.Checkpoint(network=net))
    means = 1000.0 * ds.features[:, 0]
    first = int(np.flatnonzero(means > 710.0)[0])
    assert first > 0 and means[:first].max() < 709.0
    line = fails_cleanly(capsys, ws, "predict", "--model", ws / "m.ckpt",
                         "--data", ws / "d.csv", "--trials", 2, "--out", ws / "p.csv")
    assert line.startswith(f"ltvmcd: error: id {ds.ids[first]!r}: mean ")
    assert "overflows expm1" in line


# -- sweep-trials, compare, ZILN and gen-data: an overflow is one line -------

def out_of_range(net, ziln=False):
    """net, its last layer set to give 800 as every log-space mean (ZILN:
    mu 800 with logit and scale 0), whose exp overflows a double."""
    net.params()[-2][:] = 0.0
    net.params()[-1][:] = [0.0, 800.0, 0.0] if ziln else 800.0
    return net


def test_sweep_names_the_first_id_whose_mean_overflows_expm1(ws, capsys):
    ds = small_dataset()
    nn.save_checkpoint(ws / "m.ckpt", nn.Checkpoint(network=out_of_range(nn.build_mlp(3, [4], 0.0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fails_cleanly(capsys, ws, "sweep-trials", "--model", ws / "m.ckpt", "--data",
                             ws / "d.csv", "--grid", "1,2", "--reps", 1, "--out", ws / "s.csv")
    assert line == (f"ltvmcd: error: id {ds.ids[0]!r}: mean 800.0 overflows expm1; "
                    "the model's predictions are out of range")


def test_compare_names_the_first_id_whose_mean_overflows_expm1(ws, capsys, monkeypatch):
    ds = small_dataset()
    _, test = data.split(ds, 0.8, 0)
    monkeypatch.setattr(cli.trainer, "train", lambda net, *_: (out_of_range(net), []))
    (ws / "c.json").write_text(json.dumps({"model": {"hidden_dims": [4], "dropout": 0.0}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fails_cleanly(capsys, ws, "compare", "--data", ws / "d.csv", "--config", ws / "c.json",
                             "--trials", 2, "--k", 0.5, "--out", ws / "c.csv")
    assert line == (f"ltvmcd: error: id {test.ids[0]!r}: mean 800.0 overflows expm1; "
                    "the model's predictions are out of range")


@pytest.mark.parametrize("command", ["predict", "sweep-trials"])
def test_a_ziln_prediction_that_overflows_is_one_line(ws, capsys, command):
    net = out_of_range(nn.build_mlp(3, [4], 0.3, out_dim=3, seed=2), ziln=True)
    nn.save_checkpoint(ws / "m.ckpt", nn.Checkpoint(network=net, loss_kind="ziln"))
    extra = ["--trials", 2] if command == "predict" else ["--grid", "1,2", "--reps", 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fails_cleanly(capsys, ws, command, "--model", ws / "m.ckpt",
                             "--data", ws / "d.csv", *extra, "--out", ws / "p.csv")
    assert line == "ltvmcd: error: ziln prediction contains NaN or Inf"


def test_a_noise_sigma_whose_amounts_overflow_is_one_line(tmp_path, capsys):
    (tmp_path / "s.json").write_text(json.dumps({"n": 50, "dim": 2, "noise_sigma": 1000}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fails_cleanly(capsys, tmp_path, "gen-data", "--config", tmp_path / "s.json",
                             "--out", tmp_path / "d.csv")
    assert line == "ltvmcd: error: noise_sigma 1000.0 is so large that a spend amount overflows"


# -- predict and sweep-trials: MCD moments that are not finite --------------

@pytest.mark.parametrize("command", ["predict", "sweep-trials"])
def test_a_mean_that_overflows_is_one_line_and_no_file(ws, capsys, command):
    ds = small_dataset()
    net = nn.build_mlp(ds.dim, [8], 0.3, seed=2)
    net.stack[-1].b[:] = 1e308  # each trial is finite, the sum of four is not
    nn.save_checkpoint(ws / "m.ckpt", nn.Checkpoint(network=net))
    extra = ["--trials", 4] if command == "predict" else ["--grid", "1,4", "--reps", 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fails_cleanly(capsys, ws, command, "--model", ws / "m.ckpt",
                             "--data", ws / "d.csv", *extra, "--out", ws / "p.csv")
    assert line.startswith(f"ltvmcd: error: id {ds.ids[0]!r}: MCD mean inf and std ")


# -- feature values out of range --------------------------------------------

def with_huge_f0(ws, rows):
    """d.csv with feature f0 of the given rows set to 1e200, as big.csv."""
    ds = small_dataset()
    features = ds.features.copy()
    features[rows, 0] = 1e200
    data.save_csv(data.Dataset(ds.ids, features, ds.labels), ws / "big.csv")


@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_feature_whose_std_overflows_is_one_line_and_no_file(ws, capsys, command):
    with_huge_f0(ws, slice(0, 10))  # some of these rows land in every train split
    (ws / "t.json").write_text(json.dumps({"train": {"epochs": 1}}))
    model = ["--model", "mlp"] if command == "train" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fails_cleanly(capsys, ws, command, "--data", ws / "big.csv", *model,
                             "--config", ws / "t.json", "--out", ws / "out")
    assert line == "ltvmcd: error: feature f0: its train-split mean or std overflows"


@pytest.mark.parametrize("arch", ["dcnv2", "mlp"])
def test_an_overflow_inside_the_network_is_one_line(ws, capsys, arch):
    with_huge_f0(ws, 0)
    if arch == "dcnv2":  # x0 * (x W^T + b) overflows in the first cross layer
        net = nn.build_dcnv2(3, 2, [8], 0.3, seed=2)
    else:  # the dropout multiply overflows
        net = nn.build_mlp(3, [8], 0.3, seed=2)
        net.stack[0].b[:] = 1.7e308
    nn.save_checkpoint(ws / "m.ckpt", nn.Checkpoint(network=net))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = fails_cleanly(capsys, ws, "predict", "--model", ws / "m.ckpt",
                             "--data", ws / "big.csv", "--trials", 3, "--out", ws / "p.csv")
    assert line == "ltvmcd: error: matmul result contains NaN or Inf"


# -- evaluate --z-grid -------------------------------------------------------

@pytest.fixture
def predictions(ws):
    rows = "".join(f"{i},1.0,0.5,4\n" for i in small_dataset().ids)
    (ws / "p.csv").write_text("id,mean,std,n_trials\n" + rows)
    return ws


@pytest.mark.parametrize("grid", ["0:1e300:1e-300", "nan:1:0.1", "0:1:1e-9", "0:1:inf"])
def test_evaluate_rejects_a_z_grid_out_of_bounds(predictions, capsys, grid):
    ws = predictions
    line = fails_cleanly(capsys, ws, "evaluate", "--preds", ws / "p.csv",
                         "--data", ws / "d.csv", "--k", 0.2, "--z-grid", grid,
                         "--out", ws / "r.json")
    assert line.startswith("ltvmcd: error: z grid needs 0 <= start <= stop <= 1")


def test_evaluate_accepts_the_finest_full_z_grid(predictions):
    ws = predictions
    assert run("evaluate", "--preds", ws / "p.csv", "--data", ws / "d.csv", "--k", 0.2,
               "--z-grid", f"0:1:{1 / (cli.MAX_Z_POINTS - 1)}", "--out", ws / "r.json") == 0
    assert len(json.loads((ws / "r.json").read_text())["confidence_curve"]) == cli.MAX_Z_POINTS


# -- the manifest records the resolved settings ------------------------------

def test_manifests_record_the_resolved_config(ws):
    (ws / "s.json").write_text(json.dumps({"n": 30, "dim": 2}))
    assert run("gen-data", "--config", ws / "s.json", "--out", ws / "g.csv", "--seed", 4) == 0
    doc = json.loads((ws / "g.csv.manifest.json").read_text())
    assert doc["config"] == {"n": 30, "dim": 2, "zero_inflation": 0.95,
                             "noise_sigma": 1.0, "master_seed": 4}

    (ws / "t.json").write_text(json.dumps({"train": {"epochs": 1}}))
    assert run("train", "--data", ws / "d.csv", "--model", "mlp", "--loss", "ziln",
               "--config", ws / "t.json", "--out", ws / "m.ckpt") == 0
    config = json.loads((ws / "m.ckpt.manifest.json").read_text())["config"]
    assert config["train"]["epochs"] == 1 and config["train"]["loss"] == "ziln"
    assert config["train"]["batch_size"] == 512 and config["train"]["master_seed"] == 0
    assert config["model"] == {"hidden_dims": [128, 64, 32], "dropout": 0.2,
                               "n_cross": 2, "deep_dims": [64, 32]}
    assert config["test_fraction"] == 0.2 and config["model_kind"] == "mlp"


# -- from_json on its own ----------------------------------------------------

@dataclass
class Inner:
    widths: list[int] = field(default_factory=list)
    rate: float = 0.5


@dataclass
class Outer:
    count: int
    name: str = "x"
    limit: int | None = 3
    inner: Inner = field(default_factory=Inner)


@pytest.mark.parametrize("doc, message", [
    ([], "config must be an object, got a list"),
    ({"count": 1, "extra": 2, "more": 3}, "config: unknown keys ['extra', 'more']"),
    ({}, "config.count is required"),
    ({"count": 1.0}, "config.count must be an integer, got 1.0"),
    ({"count": False}, "config.count must be an integer, got false"),
    ({"count": 1, "name": 5}, "config.name must be a string, got 5"),
    ({"count": 1, "limit": "3"}, 'config.limit must be an integer or null, got "3"'),
    ({"count": 1, "inner": [1]}, "config.inner must be an object, got a list"),
    ({"count": 1, "inner": {"widths": [1, True]}},
     "config.inner.widths[1] must be an integer, got true"),
    ({"count": 1, "inner": {"rate": float("nan")}},
     "config.inner.rate must be a finite number, got NaN"),
    ({"count": 1, "inner": {"rate": 10**400}}, "config.inner.rate must be a finite number"),
    ({"count": 1, "inner": {"rate": None}}, "config.inner.rate must be a finite number, got null"),
])
def test_from_json_names_the_dotted_path_of_a_bad_value(doc, message):
    with pytest.raises(ValueError) as exc:
        from_json(Outer, doc)
    assert str(exc.value).startswith(message)


def test_from_json_prefixes_a_range_check_with_the_path_of_its_object():
    with pytest.raises(ValueError, match=r"^config: n must be >= 1$"):
        from_json(data.SynthConfig, {"n": 0, "dim": 1})
    with pytest.raises(ValueError, match=r"^config\.train: epochs must be >= 1$"):
        from_json(cli.TrainFile, {"train": {"epochs": 0}})


def test_from_json_fills_defaults_and_converts_numbers():
    got = from_json(Outer, {"count": 2, "limit": None, "inner": {"widths": [3], "rate": 1}})
    assert got == Outer(count=2, limit=None, inner=Inner(widths=[3], rate=1.0))
    assert type(got.inner.rate) is float
    assert from_json(Outer, {"count": 2}, where="cfg") == Outer(count=2)


# -- fuzz: one bad value anywhere, through cli.main --------------------------

BAD_VALUES = ["3", True, None, [], [1], {}, {"a": 1}, 1.5, float("nan"),
              float("inf"), -1, 0, -0.5, 1.0, 2.5]


def leaf_paths(node, prefix=()):
    """The path of every value in a JSON document, containers included."""
    paths = [prefix]
    if isinstance(node, dict):
        for key, value in node.items():
            paths += leaf_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            paths += leaf_paths(value, prefix + (i,))
    return paths


def replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def gen_data_argv(draw, directory):
    doc = {"n": draw(st.integers(1, 200)), "dim": draw(st.integers(1, 4)),
           "zero_inflation": draw(st.floats(0.0, 1.0)), "noise_sigma": 1.0,
           "master_seed": draw(st.integers(0, 9))}
    path = draw(st.sampled_from(leaf_paths(doc)))
    doc = replaced(doc, path, draw(st.sampled_from(BAD_VALUES)))
    with open(os.path.join(directory, "s.json"), "w") as fh:
        json.dump(doc, fh)
    return ["gen-data", "--config", os.path.join(directory, "s.json")]


@st.composite
def train_argv(draw, directory, dataset):
    doc = {"train": {"epochs": draw(st.integers(1, 2)), "batch_size": 16,
                     "patience": draw(st.sampled_from([None, 1])),
                     "val_fraction": 0.25, "master_seed": draw(st.integers(0, 9))},
           "model": {"hidden_dims": draw(st.lists(st.integers(1, 8), max_size=2)),
                     "dropout": draw(st.sampled_from([0.0, 0.3])),
                     "n_cross": draw(st.integers(0, 2)),
                     "deep_dims": draw(st.lists(st.integers(1, 8), max_size=2))},
           "test_fraction": 0.25}
    path = draw(st.sampled_from(leaf_paths(doc)))
    doc = replaced(doc, path, draw(st.sampled_from(BAD_VALUES)))
    with open(os.path.join(directory, "t.json"), "w") as fh:
        json.dump(doc, fh)
    return ["train", "--data", dataset, "--config", os.path.join(directory, "t.json"),
            "--model", draw(st.sampled_from(["mlp", "dcnv2"])),
            "--loss", draw(st.sampled_from(["log_mse", "ziln"]))]


@st.composite
def evaluate_argv(draw, directory, dataset, preds):
    numbers = st.sampled_from(["0", "0.05", "0.5", "1", "-1", "2", "nan", "inf", "1e-300"])
    grid = ":".join(draw(st.lists(numbers, min_size=2, max_size=4)))
    return ["evaluate", "--preds", preds, "--data", dataset,
            "--k", draw(st.sampled_from(["0.2", "0", "-1", "1", "1.5", "nan", "x"])),
            "--z-grid", grid]


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ds = small_dataset(n=60)
    data.save_csv(ds, root / "d.csv")
    rows = "".join(f"{i},1.0,0.5,4\n" for i in ds.ids)
    (root / "p.csv").write_text("id,mean,std,n_trials\n" + rows)
    return str(root / "d.csv"), str(root / "p.csv")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_bad_value_never_escapes_as_a_traceback(fixtures, drawn):
    dataset, preds = fixtures
    with tempfile.TemporaryDirectory() as directory:
        command = drawn.draw(st.sampled_from(["gen-data", "train", "evaluate"]))
        if command == "gen-data":
            argv = drawn.draw(gen_data_argv(directory))
        elif command == "train":
            argv = drawn.draw(train_argv(directory, dataset))
        else:
            argv = drawn.draw(evaluate_argv(directory, dataset, preds))
        out = os.path.join(directory, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
                assert code == 2
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("ltvmcd: error:")]
        assert code in (0, 1, 2)
        assert len(errors) == (code == 1), err.getvalue()
        if code != 0:
            assert not os.path.exists(out)
        elif command == "train":
            assert math.isfinite(nn.load_checkpoint(out).network.params()[0].sum())
