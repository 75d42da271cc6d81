import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from ltvmcd import cli, data, nn
from ltvmcd.mcd import McdConfig, mcd_predict


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A generated dataset and a trained mlp checkpoint, built once."""
    root = tmp_path_factory.mktemp("cliws")
    (root / "synth.json").write_text(json.dumps(
        {"n": 1200, "dim": 6, "zero_inflation": 0.6, "noise_sigma": 1.0,
         "master_seed": 3}))
    (root / "train.json").write_text(json.dumps(
        {"train": {"epochs": 5, "batch_size": 128},
         "model": {"hidden_dims": [12, 6], "dropout": 0.3},
         "test_fraction": 0.25}))
    assert run("gen-data", "--config", root / "synth.json",
               "--out", root / "data.csv") == 0
    assert run("train", "--data", root / "data.csv", "--model", "mlp",
               "--config", root / "train.json", "--out", root / "model.ckpt",
               "--test-out", root / "test.csv") == 0
    return root


class TestGenData:
    def test_writes_csv_and_manifest(self, ws):
        assert (ws / "data.csv").exists()
        manifest = json.loads((ws / "data.csv.manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["master_seed"] == 3
        assert manifest["config"]["n"] == 1200
        assert "duration_seconds" in manifest

    def test_invalid_config_no_partial_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n": 0, "dim": 4}))
        out = tmp_path / "never.csv"
        assert run("gen-data", "--config", cfg, "--out", out) == 1
        assert not out.exists()

    def test_byte_identical_rerun(self, ws, tmp_path):
        out = tmp_path / "again.csv"
        assert run("gen-data", "--config", ws / "synth.json", "--out", out) == 0
        assert out.read_bytes() == (ws / "data.csv").read_bytes()


class TestTrain:
    def test_checkpoint_loads_and_evals(self, ws):
        ckpt = nn.load_checkpoint(ws / "model.ckpt")
        test = data.load_csv(ws / "test.csv")
        data.standardize_in_place(test, *ckpt.norm)
        out, _ = ckpt.network.forward(test.features, "eval")
        assert out.shape == (test.n, 1)
        assert np.all(np.isfinite(out))

    def test_history_csv(self, ws):
        rows = read_rows(ws / "model.ckpt.history.csv")
        assert len(rows) == 5
        assert [r["epoch"] for r in rows] == [str(i) for i in range(5)]
        assert all(float(r["val_loss"]) > 0 for r in rows)

    def test_unknown_model_is_usage_error(self, ws, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--data", ws / "data.csv", "--model", "transformer",
                "--out", tmp_path / "m.ckpt")
        assert exc.value.code == 2

    def test_unknown_config_section_is_runtime_error(self, ws, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"trainer": {"epochs": 1}}))
        assert run("train", "--data", ws / "data.csv", "--model", "mlp",
                   "--config", cfg, "--out", tmp_path / "m.ckpt") == 1
        assert not (tmp_path / "m.ckpt").exists()

    def test_fixed_seed_identical_checkpoint_bytes(self, ws, tmp_path):
        args = ("train", "--data", ws / "data.csv", "--model", "mlp",
                "--config", ws / "train.json", "--seed", "21")
        assert run(*args, "--out", tmp_path / "a.ckpt") == 0
        assert run(*args, "--out", tmp_path / "b.ckpt") == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestPredict:
    def test_single_trial_std_zero(self, ws, tmp_path):
        out = tmp_path / "p1.csv"
        assert run("predict", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                   "--trials", 1, "--seed", 4, "--out", out) == 0
        rows = read_rows(out)
        assert all(float(r["std"]) == 0.0 for r in rows)
        assert all(r["n_trials"] == "1" for r in rows)

    def test_dropout_zero_model(self, ws, tmp_path):
        net = nn.build_mlp(6, [10], 0.0, seed=2)
        ckpt_path = tmp_path / "det.ckpt"
        nn.save_checkpoint(ckpt_path, nn.Checkpoint(network=net, loss_kind="log_mse"))
        out = tmp_path / "det.csv"
        assert run("predict", "--model", ckpt_path, "--data", ws / "test.csv",
                   "--trials", 8, "--seed", 4, "--out", out) == 0
        rows = read_rows(out)
        test = data.load_csv(ws / "test.csv")
        ref, _ = net.forward(test.features, "eval")
        for i, r in enumerate(rows):
            assert float(r["std"]) == 0.0
            assert float(r["mean"]) == ref[i, 0]

    def test_same_seed_byte_identical(self, ws, tmp_path):
        args = ("predict", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                "--trials", 64, "--seed", 7)
        assert run(*args, "--out", tmp_path / "a.csv") == 0
        assert run(*args, "--out", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_keep_trials_columns(self, ws, tmp_path):
        out = tmp_path / "kt.csv"
        assert run("predict", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                   "--trials", 3, "--seed", 4, "--keep-trials", "--out", out) == 0
        rows = read_rows(out)
        trials = [[float(r[f"t{j}"]) for j in range(3)] for r in rows]
        for r, tv in zip(rows, trials):
            assert float(r["mean"]) == pytest.approx(np.mean(tv), abs=1e-12)

    def test_keep_trials_file_is_the_csv_writer_table_on_every_rerun(self, ws, tmp_path):
        # 1200 rows, so the file spans blocks of plain and of quoted ids
        ds = data.load_csv(ws / "data.csv")
        ds.ids[3], ds.ids[700], ds.ids[701] = "a,b", 'say "hi"', "n\nm"
        data.save_csv(ds, tmp_path / "d.csv")
        args = ("predict", "--model", ws / "model.ckpt", "--data", tmp_path / "d.csv",
                "--trials", 5, "--seed", 4, "--keep-trials")
        assert run(*args, "--out", tmp_path / "a.csv") == 0
        assert run(*args, "--out", tmp_path / "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

        ckpt = nn.load_checkpoint(ws / "model.ckpt")
        data.standardize_in_place(ds, *ckpt.norm)
        result = mcd_predict(ckpt.network, ds, McdConfig(trials=5, master_seed=4),
                             loss_kind=ckpt.loss_kind, keep_trials=True)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "mean", "std", "n_trials", "raw_mean", *(f"t{j}" for j in range(5))])
        for s in result:
            writer.writerow([s.sample_id, repr(s.mean), repr(s.std), s.n_trials, repr(math.expm1(s.mean)),
                             *map(repr, s.trials.tolist())])
        assert (tmp_path / "a.csv").read_bytes() == buf.getvalue().encode("utf-8")

    def test_env_seed_overrides_flag(self, ws, tmp_path, monkeypatch):
        flag = tmp_path / "flag.csv"
        assert run("predict", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                   "--trials", 4, "--seed", 123, "--out", flag) == 0
        monkeypatch.setenv("LTVMCD_SEED", "123")
        env = tmp_path / "env.csv"
        assert run("predict", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                   "--trials", 4, "--seed", 99, "--out", env) == 0
        assert env.read_bytes() == flag.read_bytes()
        manifest = json.loads((env.with_suffix(".csv.manifest.json")).read_text())
        assert manifest["master_seed"] == 123


def write_preds(path, ids, means, stds, trials):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["id", "mean", "std", "n_trials"])
        for i, m, s, t in zip(ids, means, stds, trials):
            w.writerow([i, repr(float(m)), repr(float(s)), t])


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path):
        labels = [4.0, 1.0, 9.0, 2.5]
        ids = [f"u{i}" for i in range(4)]
        ds = data.Dataset(ids, np.zeros((4, 2)), np.array(labels))
        data.save_csv(ds, tmp_path / "d.csv")
        write_preds(tmp_path / "p.csv", ids, labels, [0.0] * 4, [4] * 4)
        out = tmp_path / "r.json"
        assert run("evaluate", "--preds", tmp_path / "p.csv", "--data", tmp_path / "d.csv",
                   "--k", 0.5, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["normalized_gini"] == pytest.approx(1.0, abs=1e-12)
        assert report["top_k_mape"] == 0.0
        assert report["top_k_hit_rate"] == 1.0

    def test_shuffled_ids_rejected(self, tmp_path):
        ids = ["u0", "u1", "u2"]
        ds = data.Dataset(ids, np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
        data.save_csv(ds, tmp_path / "d.csv")
        write_preds(tmp_path / "p.csv", ["u1", "u0", "u2"], [1, 2, 3], [0] * 3, [2] * 3)
        assert run("evaluate", "--preds", tmp_path / "p.csv",
                   "--data", tmp_path / "d.csv", "--out", tmp_path / "r.json") == 1
        assert not (tmp_path / "r.json").exists()

    def test_eight_row_fixture_matches_oracles(self, tmp_path):
        rng = np.random.default_rng(31)
        ids = [f"u{i}" for i in range(8)]
        labels = [0.0, 12.5, 0.0, 3.25, 40.0, 0.0, 7.5, 1.125]
        means = rng.normal(size=8).round(3).tolist()
        stds = np.abs(rng.normal(size=8)).round(3).tolist()
        ds = data.Dataset(ids, rng.normal(size=(8, 2)), np.array(labels))
        data.save_csv(ds, tmp_path / "d.csv")
        write_preds(tmp_path / "p.csv", ids, means, stds, [16] * 8)
        out = tmp_path / "r.json"
        assert run("evaluate", "--preds", tmp_path / "p.csv", "--data", tmp_path / "d.csv",
                   "--k", 0.25, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["normalized_gini"] == oracles.normalized_gini(means, labels)
        assert report["top_k_mape"] == oracles.top_k_mape(means, labels, 0.25)
        assert report["top_k_hit_rate"] == oracles.top_k_hit_rate(means, labels, 0.25)

    def test_curve_csv_and_custom_grid(self, tmp_path):
        ids = ["a", "b"]
        ds = data.Dataset(ids, np.zeros((2, 1)), np.array([1.0, 2.0]))
        data.save_csv(ds, tmp_path / "d.csv")
        write_preds(tmp_path / "p.csv", ids, [1.0, 2.0], [0.5, 0.5], [4, 4])
        out = tmp_path / "r.json"
        assert run("evaluate", "--preds", tmp_path / "p.csv", "--data", tmp_path / "d.csv",
                   "--k", 1.0, "--z-grid", "0:0.5:0.25", "--out", out) == 0
        rows = read_rows(tmp_path / "r.curve.csv")
        assert [r["z"] for r in rows] == ["0.0", "0.25", "0.5"]

    def test_log_mse_preds_use_raw_mean(self, ws, tmp_path):
        preds = tmp_path / "p.csv"
        assert run("predict", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                   "--trials", 8, "--seed", 1, "--out", preds) == 0
        out = tmp_path / "r.json"
        assert run("evaluate", "--preds", preds, "--data", ws / "test.csv",
                   "--k", 0.1, "--out", out) == 0
        report = json.loads(out.read_text())
        rows = read_rows(preds)
        test = data.load_csv(ws / "test.csv")
        raw = [float(r["raw_mean"]) for r in rows]
        assert report["normalized_gini"] == oracles.normalized_gini(raw, test.labels.tolist())


class TestSweepTrials:
    def test_single_entry_grid(self, ws, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep-trials", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                   "--grid", "1", "--reps", 3, "--k", 0.2, "--seed", 6, "--out", out) == 0
        rows = read_rows(out)
        assert len(rows) == 1 and rows[0]["trials"] == "1"

    def test_dropout_zero_model_has_zero_spread(self, ws, tmp_path):
        net = nn.build_mlp(6, [10], 0.0, seed=5)
        ckpt_path = tmp_path / "det.ckpt"
        nn.save_checkpoint(ckpt_path, nn.Checkpoint(network=net, loss_kind="log_mse"))
        out = tmp_path / "s.csv"
        assert run("sweep-trials", "--model", ckpt_path, "--data", ws / "test.csv",
                   "--grid", "1,4", "--reps", 3, "--k", 0.2, "--seed", 6,
                   "--out", out) == 0
        for row in read_rows(out):
            assert float(row["gini_std"]) == 0.0
            assert float(row["mape_std"]) == 0.0

    def test_bad_grid_rejected(self, ws, tmp_path):
        assert run("sweep-trials", "--model", ws / "model.ckpt",
                   "--data", ws / "test.csv", "--grid", "4,zero",
                   "--out", tmp_path / "s.csv") == 1


class TestCompare:
    def test_five_finite_rows(self, ws, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps(
            {"train": {"epochs": 2, "batch_size": 128},
             "model": {"hidden_dims": [8], "dropout": 0.2, "n_cross": 1,
                       "deep_dims": [8]},
             "test_fraction": 0.25}))
        out = tmp_path / "table.csv"
        assert run("compare", "--data", ws / "data.csv", "--config", cfg,
                   "--trials", 4, "--k", 0.2, "--seed", 1, "--out", out) == 0
        rows = read_rows(out)
        assert [r["model"] for r in rows] == [
            "raw-mlp", "mcd-mlp", "raw-dcnv2", "mcd-dcnv2", "ziln"]
        for row in rows:
            for col in ("normalized_gini", "top_k_mape", "top_k_hit_rate"):
                assert np.isfinite(float(row[col]))


class TestParsing:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert cli.VERSION in capsys.readouterr().out

    def test_python_m_ltvmcd_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-m", "ltvmcd", "--version"],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "ltvmcd 0.1.0\n"), proc.stderr

    def test_bad_env_seed(self, ws, tmp_path, monkeypatch):
        monkeypatch.setenv("LTVMCD_SEED", "not-a-number")
        assert run("predict", "--model", ws / "model.ckpt", "--data", ws / "test.csv",
                   "--trials", 1, "--out", tmp_path / "p.csv") == 1
