"""The benchmark's workloads: inputs generated from a seed, the CLI commands
one pass runs, and the checks every primary artifact must pass.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is written down in NOTES.md.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

from ltvmcd import data, nn, trainer

ZERO_INFLATION = 0.9
NOISE_SIGMA = 1.0
TEST_FRACTION = 0.2
TOP_K = 0.05
Z_POINTS = 21  # the CLI's default z grid 0:1:0.05
MLP_HIDDEN = [128, 64, 32]
DCN_CROSS = 2
DCN_DEEP = [64, 32]
DROPOUT = 0.2
TRAIN_BATCH = 512
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class Scale:
    n: int  # rows generated; the test split holds TEST_FRACTION of them
    dim: int
    fixture_epochs: int  # epochs of the checkpoint mcd_mlp and sweep_dcnv2 read
    fit_epochs: int  # epochs fit_mlp trains each pass, early stopping off
    trials: int  # T of mcd_mlp's predict
    grid: tuple  # sweep_dcnv2's trial counts
    reps: int  # sweep_dcnv2's seeds per trial count
    sweep_batch: int  # sweep_dcnv2's rows per inference chunk, below the test rows


# FULL is what the benchmark measures: the README quickstart data.
FULL = Scale(n=50_000, dim=10, fixture_epochs=2, fit_epochs=2, trials=64,
             grid=(1, 2, 4, 8, 16), reps=4, sweep_batch=1000)
# TINY keeps the smoke test fast; every stage and check still runs.
TINY = Scale(n=1_000, dim=4, fixture_epochs=1, fit_epochs=1, trials=4,
             grid=(1, 2), reps=2, sweep_batch=64)


class CheckFailed(Exception):
    """An artifact is missing, malformed, or differs from its reference."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def n_test_rows(scale):
    return scale.n - int(round(scale.n * (1.0 - TEST_FRACTION)))


@dataclass
class Command:
    stage: str  # CLI subcommand
    argv: list
    outputs: dict  # artifact name -> path, manifests excluded


# -- input generation --------------------------------------------------------


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fixture(workdir, seed, scale, arch):
    """Train the checkpoint the inference workloads read, exactly as
    ``ltvmcd train`` would on the generated data, and keep its raw test
    split. Returns the input files."""
    ds = data.generate_synthetic(data.SynthConfig(
        n=scale.n, dim=scale.dim, zero_inflation=ZERO_INFLATION,
        noise_sigma=NOISE_SIGMA, master_seed=seed))
    train_raw, test_raw = data.split(ds, 1.0 - TEST_FRACTION, seed)
    train_std, _ = data.standardize(train_raw, test_raw)
    if arch == "mlp":
        net = nn.build_mlp(scale.dim, MLP_HIDDEN, DROPOUT, seed=seed)
    else:
        net = nn.build_dcnv2(scale.dim, DCN_CROSS, DCN_DEEP, DROPOUT, seed=seed)
    cfg = trainer.TrainConfig(epochs=scale.fixture_epochs, batch_size=TRAIN_BATCH,
                              learning_rate=LEARNING_RATE, patience=None,
                              master_seed=seed)
    net, _ = trainer.train(net, train_std, cfg)
    inputs = {"model.ckpt": os.path.join(workdir, "model.ckpt"),
              "test.csv": os.path.join(workdir, "test.csv")}
    nn.save_checkpoint(inputs["model.ckpt"], nn.Checkpoint(
        network=net, loss_kind="log_mse", norm=(train_std.norm_mean, train_std.norm_std)))
    data.save_csv(test_raw, inputs["test.csv"])
    return inputs


def _fit_configs(workdir, seed, scale):
    inputs = {"synth.json": os.path.join(workdir, "synth.json"),
              "train.json": os.path.join(workdir, "train.json")}
    _write_json(inputs["synth.json"], {"n": scale.n, "dim": scale.dim,
                                       "zero_inflation": ZERO_INFLATION,
                                       "noise_sigma": NOISE_SIGMA})
    _write_json(inputs["train.json"], {
        "train": {"epochs": scale.fit_epochs, "batch_size": TRAIN_BATCH,
                  "learning_rate": LEARNING_RATE, "patience": None},
        "model": {"hidden_dims": MLP_HIDDEN, "dropout": DROPOUT},
        "test_fraction": TEST_FRACTION,
    })
    return inputs


# -- commands ----------------------------------------------------------------


def _mcd_mlp_commands(workdir, inputs, seed, scale):
    preds = os.path.join(workdir, "preds.csv")
    report = os.path.join(workdir, "report.json")
    return [
        Command("predict", ["predict", "--model", inputs["model.ckpt"],
                            "--data", inputs["test.csv"], "--trials", str(scale.trials),
                            "--seed", str(seed), "--batch-size", "0", "--out", preds],
                {"preds.csv": preds}),
        Command("evaluate", ["evaluate", "--preds", preds, "--data", inputs["test.csv"],
                             "--k", str(TOP_K), "--out", report],
                {"report.json": report,
                 "report.curve.csv": os.path.join(workdir, "report.curve.csv")}),
    ]


def _fit_mlp_commands(workdir, inputs, seed, scale):
    dataset = os.path.join(workdir, "data.csv")
    ckpt = os.path.join(workdir, "fit.ckpt")
    test = os.path.join(workdir, "fit_test.csv")
    return [
        Command("gen-data", ["gen-data", "--config", inputs["synth.json"],
                             "--seed", str(seed), "--out", dataset],
                {"data.csv": dataset}),
        Command("train", ["train", "--data", dataset, "--model", "mlp",
                          "--config", inputs["train.json"], "--seed", str(seed),
                          "--out", ckpt, "--test-out", test],
                {"fit.ckpt": ckpt, "fit.ckpt.history.csv": ckpt + ".history.csv",
                 "fit_test.csv": test}),
    ]


def _sweep_dcnv2_commands(workdir, inputs, seed, scale):
    sweep = os.path.join(workdir, "sweep.csv")
    return [
        Command("sweep-trials", ["sweep-trials", "--model", inputs["model.ckpt"],
                                 "--data", inputs["test.csv"],
                                 "--grid", ",".join(map(str, scale.grid)),
                                 "--reps", str(scale.reps), "--k", str(TOP_K),
                                 "--seed", str(seed),
                                 "--batch-size", str(scale.sweep_batch), "--out", sweep],
                {"sweep.csv": sweep}),
    ]


# -- structural checks -------------------------------------------------------


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    expect(rows, f"{os.path.basename(path)}: empty")
    return rows[0], rows[1:]


def _floats(row, what):
    try:
        values = [float(v) for v in row]
    except ValueError:
        raise CheckFailed(f"{what}: unparseable number in {row[:3]}") from None
    expect(all(math.isfinite(v) for v in values), f"{what}: non-finite value")
    return values


def _synthetic_ids(n):
    return [f"u{i:07d}" for i in range(n)]


def _dataset_ids(path, dim, what):
    """Ids of a dataset CSV, read and validated by ``data.load_csv`` (header,
    field counts, finite values, labels >= 0), so the check holds no more
    memory than the program does when it reads the same file."""
    try:
        ds = data.load_csv(path)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{what}: {exc}") from None
    expect(ds.dim == dim, f"{what}: {ds.dim} features, expected {dim}")
    expect((ds.labels > 0.0).any(), f"{what}: no positive label")
    return ds.ids


def _check_preds(outputs, ctx):
    header, rows = _read_csv(outputs["preds.csv"])
    expect(header == ["id", "mean", "std", "n_trials", "raw_mean"], f"preds.csv: header {header}")
    expect([r[0] for r in rows] == ctx["test_ids"], "preds.csv: ids do not match the test data")
    trials = ctx["scale"].trials
    spread = False
    for row in rows:
        expect(len(row) == 5, f"preds.csv: row {row[:1]} has {len(row)} fields")
        mean, std, raw = _floats([row[1], row[2], row[4]], "preds.csv")
        expect(row[3] == str(trials), f"preds.csv: n_trials {row[3]} != {trials}")
        expect(std >= 0.0, f"preds.csv: negative std in row {row[0]}")
        expect(raw == math.expm1(mean), f"preds.csv: raw_mean != expm1(mean) in row {row[0]}")
        spread = spread or std > 0.0
    expect(spread or trials == 1, "preds.csv: every std is 0 although dropout is active")


def _check_report(outputs, ctx):
    with open(outputs["report.json"], encoding="utf-8") as fh:
        doc = json.load(fh)
    expect(doc.get("n") == len(ctx["test_ids"]), f"report.json: n={doc.get('n')}")
    expect(doc.get("k") == TOP_K, f"report.json: k={doc.get('k')}")
    gini, mape, hit = doc["normalized_gini"], doc["top_k_mape"], doc["top_k_hit_rate"]
    expect(-1.0 <= gini <= 1.0, f"report.json: gini {gini} outside [-1, 1]")
    expect(math.isfinite(mape) and mape >= 0.0, f"report.json: mape {mape}")
    expect(0.0 <= hit <= 1.0, f"report.json: hit rate {hit}")
    curve = doc["confidence_curve"]
    expect(len(curve) == Z_POINTS, f"report.json: {len(curve)} curve points")
    accs = [acc for _, acc in curve]
    expect(all(0.0 <= a <= 1.0 for a in accs), "report.json: curve accuracy outside [0, 1]")
    expect(all(a <= b for a, b in zip(accs, accs[1:])), "report.json: curve decreases")
    header, rows = _read_csv(outputs["report.curve.csv"])
    expect(header == ["z", "accuracy"], f"report.curve.csv: header {header}")
    expect([_floats(r, "report.curve.csv") for r in rows] == curve,
           "report.curve.csv: differs from the report's curve")


def _check_gen_data(outputs, ctx):
    scale = ctx["scale"]
    ids = _dataset_ids(outputs["data.csv"], scale.dim, "data.csv")
    expect(ids == _synthetic_ids(scale.n), "data.csv: ids are not u0000000..")


def _check_train(outputs, ctx):
    scale = ctx["scale"]
    with open(outputs["fit.ckpt"], encoding="utf-8") as fh:
        doc = json.load(fh)
    expect(doc.get("format") == "ltvmcd-checkpoint", "fit.ckpt: wrong format tag")
    expect((doc.get("arch"), doc.get("input_dim"), doc.get("loss")) == ("mlp", scale.dim, "log_mse"),
           "fit.ckpt: wrong arch, input width or loss")
    norm = doc.get("norm") or {}
    expect(len(norm.get("mean", [])) == scale.dim and len(norm.get("std", [])) == scale.dim,
           "fit.ckpt: standardization has the wrong width")
    header, rows = _read_csv(outputs["fit.ckpt.history.csv"])
    expect(header == ["epoch", "train_loss", "val_loss"], f"history: header {header}")
    expect([r[0] for r in rows] == [str(e) for e in range(scale.fit_epochs)],
           f"history: {len(rows)} epochs, expected {scale.fit_epochs}")
    for row in rows:
        expect(min(_floats(row[1:], "history")) >= 0.0, "history: negative loss")
    ids = _dataset_ids(outputs["fit_test.csv"], scale.dim, "fit_test.csv")
    expect(len(ids) == n_test_rows(scale), f"fit_test.csv: {len(ids)} rows")
    expect(set(ids) <= set(_synthetic_ids(scale.n)), "fit_test.csv: ids not in the generated data")


def _check_sweep(outputs, ctx):
    scale = ctx["scale"]
    header, rows = _read_csv(outputs["sweep.csv"])
    expect(header == ["trials", "gini_mean", "gini_std", "mape_mean", "mape_std"],
           f"sweep.csv: header {header}")
    expect([r[0] for r in rows] == [str(t) for t in scale.grid],
           "sweep.csv: rows do not match the trial grid")
    for row in rows:
        gini, gini_std, mape, mape_std = _floats(row[1:], "sweep.csv")
        expect(-1.0 <= gini <= 1.0, f"sweep.csv: gini {gini} outside [-1, 1]")
        expect(gini_std >= 0.0 and mape_std >= 0.0, "sweep.csv: negative spread")
        expect(mape >= 0.0, f"sweep.csv: negative mape {mape}")


CHECKS = {
    "predict": _check_preds,
    "evaluate": _check_report,
    "gen-data": _check_gen_data,
    "train": _check_train,
    "sweep-trials": _check_sweep,
}


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    main_stage: str
    setup: object  # (workdir, seed, scale) -> {input name: path}
    commands: object  # (workdir, inputs, seed, scale) -> [Command]

    def context(self, inputs, scale):
        """What the structural checks compare artifacts against."""
        ctx = {"scale": scale}
        if "test.csv" in inputs:
            ctx["test_ids"] = _dataset_ids(inputs["test.csv"], scale.dim, "test.csv")
        return ctx

    def describe(self, scale):
        """Input sizes, for the report."""
        test = n_test_rows(scale)
        if self.name == "mcd_mlp":
            return (f"test_rows={test} dim={scale.dim} mlp={MLP_HIDDEN} dropout={DROPOUT} "
                    f"trials={scale.trials} batch_size=0 fixture_epochs={scale.fixture_epochs}")
        if self.name == "fit_mlp":
            return (f"rows={scale.n} dim={scale.dim} mlp={MLP_HIDDEN} dropout={DROPOUT} "
                    f"epochs={scale.fit_epochs} early_stopping=off test_rows={test}")
        return (f"test_rows={test} dim={scale.dim} dcnv2 n_cross={DCN_CROSS} deep={DCN_DEEP} "
                f"dropout={DROPOUT} grid={','.join(map(str, scale.grid))} reps={scale.reps} "
                f"batch_size={scale.sweep_batch} fixture_epochs={scale.fixture_epochs}")


WORKLOADS = {
    "mcd_mlp": Workload("mcd_mlp", "predict",
                        lambda w, s, sc: _fixture(w, s, sc, "mlp"), _mcd_mlp_commands),
    "fit_mlp": Workload("fit_mlp", "train", _fit_configs, _fit_mlp_commands),
    "sweep_dcnv2": Workload("sweep_dcnv2", "sweep-trials",
                            lambda w, s, sc: _fixture(w, s, sc, "dcnv2"), _sweep_dcnv2_commands),
}
