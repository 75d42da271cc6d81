"""Command-line pipeline: synthetic data generation, training, MCD
prediction, evaluation, trial-count sweeps, and a model comparison table.

Every command is a pure function of its inputs, config, and master seed,
so re-running a command reproduces its artifacts byte for byte. Outputs
are written atomically (temp file, then rename) and each run leaves one
manifest at <out>.manifest.json recording the resolved config; the
manifest's duration field is wall-clock and is the one part of a run
that is not reproducible.

Seed resolution order: LTVMCD_SEED env var, then --seed, then the config
file, then 0.

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__ as VERSION
from . import data as datamod
from . import losses, metrics, nn, trainer
from .mcd import McdConfig, PredictionSummary, mcd_predict

SEED_ENV_VAR = "LTVMCD_SEED"

DEFAULT_HIDDEN_DIMS = [128, 64, 32]
DEFAULT_DEEP_DIMS = [64, 32]
DEFAULT_N_CROSS = 2
DEFAULT_DROPOUT = 0.2


def _fail(message):
    raise ValueError(message)


def _resolve_seed(flag_seed, config_seed):
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return int(config_seed)
    return 0


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        _fail(f"{path}: expected a JSON object at top level")
    return doc


def _write_json(path, doc):
    with datamod.atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def _fmt(value):
    return repr(float(value))


def _write_manifest(out_path, command, config, seed, artifacts, started):
    doc = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "artifacts": list(artifacts),
        "version": VERSION,
        "duration_seconds": round(time.time() - started, 3),
    }
    _write_json(out_path + ".manifest.json", doc)


def _build_network(kind, input_dim, out_dim, model_cfg, seed):
    cfg = dict(model_cfg)
    dropout = float(cfg.pop("dropout", DEFAULT_DROPOUT))
    hidden = [int(h) for h in cfg.pop("hidden_dims", DEFAULT_HIDDEN_DIMS)]
    n_cross = int(cfg.pop("n_cross", DEFAULT_N_CROSS))
    deep = [int(h) for h in cfg.pop("deep_dims", DEFAULT_DEEP_DIMS)]
    if cfg:
        _fail(f"unknown model config keys: {sorted(cfg)}")
    if kind == "mlp":
        return nn.build_mlp(input_dim, hidden, dropout, out_dim=out_dim, seed=seed)
    if kind == "dcnv2":
        return nn.build_dcnv2(input_dim, n_cross, deep, dropout, out_dim=out_dim, seed=seed)
    _fail(f"unknown model kind {kind!r}")


def _standardized_for(ckpt, dataset):
    feats = dataset.features
    if ckpt.norm is not None:
        feats = datamod.apply_standardization(feats, ckpt.norm[0], ckpt.norm[1])
    return datamod.Dataset(dataset.ids, feats, dataset.labels)


def _raw_space(loss_kind, means):
    """Map per-sample MCD means into raw currency amounts."""
    if loss_kind == "log_mse":
        return np.expm1(means)
    return np.asarray(means, dtype=float)


def cmd_gen_data(args):
    started = time.time()
    raw = _load_json(args.config)
    seed = _resolve_seed(args.seed, raw.get("master_seed"))
    raw["master_seed"] = seed
    cfg = datamod.SynthConfig.from_dict(raw)
    dataset = datamod.generate_synthetic(cfg)
    datamod.save_csv(dataset, args.out)
    _write_manifest(args.out, "gen-data", raw, seed, [args.out], started)
    positives = float(np.mean(dataset.labels > 0))
    print(f"wrote {dataset.n} rows x {dataset.dim} features to {args.out} "
          f"(positive rate {positives:.4f})")
    return 0


def _load_train_config(path):
    doc = _load_json(path) if path else {}
    unknown = set(doc) - {"train", "model", "test_fraction"}
    if unknown:
        _fail(f"unknown config sections: {sorted(unknown)}")
    return doc


def _prepare_training(args):
    """Shared start of train and compare: load the dataset and the train
    config, resolve the seed, split off the test fraction, and standardize
    on the train split. Returns (train_dict, model_dict, test_fraction,
    seed, (train_raw, test_raw), (train_std, test_std))."""
    dataset = datamod.load_csv(args.data)
    doc = _load_train_config(args.config)
    train_dict = dict(doc.get("train", {}))
    model_dict = dict(doc.get("model", {}))
    test_fraction = float(doc.get("test_fraction", 0.2))
    if not 0.0 < test_fraction < 1.0:
        _fail(f"test_fraction must be in (0, 1), got {test_fraction}")
    seed = _resolve_seed(args.seed, train_dict.get("master_seed"))
    train_dict["master_seed"] = seed
    raw = datamod.split(dataset, 1.0 - test_fraction, seed)
    return train_dict, model_dict, test_fraction, seed, raw, datamod.standardize(*raw)


def cmd_train(args):
    started = time.time()
    train_dict, model_dict, test_fraction, seed, (train_raw, test_raw), (train_std, _) = \
        _prepare_training(args)
    cfg = trainer.TrainConfig.from_dict({**train_dict, "loss": args.loss})
    net = _build_network(args.model, train_std.dim, losses.head_width(args.loss),
                         model_dict, seed)
    net, history = trainer.train(net, train_std, cfg)

    ckpt = nn.Checkpoint(network=net, loss_kind=args.loss,
                         norm=(train_std.norm_mean, train_std.norm_std))
    nn.save_checkpoint(args.out, ckpt)
    artifacts = [args.out]

    history_path = args.history_out or args.out + ".history.csv"
    rows = [(epoch, _fmt(tr), _fmt(val)) for epoch, tr, val in history]
    datamod.write_csv(history_path, ["epoch", "train_loss", "val_loss"], rows)
    artifacts.append(history_path)

    if args.test_out:
        datamod.save_csv(test_raw, args.test_out)
        artifacts.append(args.test_out)

    resolved = {"train": cfg.to_dict(), "model": model_dict,
                "test_fraction": test_fraction, "model_kind": args.model}
    _write_manifest(args.out, "train", resolved, seed, artifacts, started)
    print(f"trained {args.model}/{args.loss} on {train_raw.n} rows, "
          f"{len(history)} epochs, final val loss {history[-1][2]:.6g}; "
          f"checkpoint at {args.out}")
    return 0


def cmd_predict(args):
    started = time.time()
    ckpt = nn.load_checkpoint(args.model)
    dataset = datamod.load_csv(args.data)
    ds = _standardized_for(ckpt, dataset)
    seed = _resolve_seed(args.seed, None)
    cfg = McdConfig(trials=args.trials, master_seed=seed, batch_size=args.batch_size)
    summaries = mcd_predict(ckpt.network, ds, cfg, loss_kind=ckpt.loss_kind,
                            keep_trials=args.keep_trials)

    header = ["id", "mean", "std", "n_trials"]
    raw_space = ckpt.loss_kind == "log_mse"
    if raw_space:
        header.append("raw_mean")
    if args.keep_trials:
        header.extend(f"t{j}" for j in range(args.trials))
    rows = []
    for s in summaries:
        row = [s.sample_id, _fmt(s.mean), _fmt(s.std), s.n_trials]
        if raw_space:
            row.append(_fmt(math.expm1(s.mean)))
        if args.keep_trials:
            row.extend(_fmt(v) for v in s.trials)
        rows.append(row)
    datamod.write_csv(args.out, header, rows)

    resolved = {"trials": args.trials, "batch_size": args.batch_size,
                "loss": ckpt.loss_kind, "model": args.model}
    _write_manifest(args.out, "predict", resolved, seed, [args.out], started)
    print(f"wrote {len(summaries)} predictions ({args.trials} trials) to {args.out}")
    return 0


def _read_predictions(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            _fail(f"{path}: empty predictions file")
        base = ["id", "mean", "std", "n_trials"]
        if header[:4] != base:
            _fail(f"{path}: unexpected header {header[:5]}")
        rest = header[4:]
        has_raw = bool(rest) and rest[0] == "raw_mean"
        trial_cols = rest[1:] if has_raw else rest
        if trial_cols != [f"t{j}" for j in range(len(trial_cols))]:
            _fail(f"{path}: unexpected trailing columns {trial_cols[:3]}")
        ids, means, stds, trials, raws = [], [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                _fail(f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                mean, std, n_trials = float(row[1]), float(row[2]), int(row[3])
                if has_raw:
                    raws.append(float(row[4]))
            except ValueError:
                _fail(f"{path}: line {line_no}: unparseable numeric field")
            if not (math.isfinite(mean) and math.isfinite(std)):
                _fail(f"{path}: line {line_no}: mean and std must be finite")
            if std < 0:
                _fail(f"{path}: line {line_no}: negative std {std!r}")
            if n_trials < 1:
                _fail(f"{path}: line {line_no}: n_trials must be >= 1, got {n_trials}")
            ids.append(row[0])
            means.append(mean)
            stds.append(std)
            trials.append(n_trials)
    if not ids:
        _fail(f"{path}: no prediction rows")
    raw_arr = np.array(raws) if has_raw else None
    return ids, np.array(means), np.array(stds), trials, raw_arr


def _parse_z_grid(spec_str):
    parts = spec_str.split(":")
    if len(parts) != 3:
        _fail(f"z grid must look like start:stop:step, got {spec_str!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        _fail(f"z grid fields must be numbers, got {spec_str!r}")
    if step <= 0 or stop < start:
        _fail(f"z grid needs step > 0 and stop >= start, got {spec_str!r}")
    count = int(round((stop - start) / step)) + 1
    grid = np.round(start + step * np.arange(count), 12)
    return grid[grid <= stop + 1e-12]


def cmd_evaluate(args):
    started = time.time()
    ids, means, stds, trials, raw_means = _read_predictions(args.preds)
    dataset = datamod.load_csv(args.data)
    if len(ids) != dataset.n:
        _fail(f"{len(ids)} predictions vs {dataset.n} data rows")
    for i, (pid, did) in enumerate(zip(ids, dataset.ids)):
        if pid != did:
            _fail(f"id mismatch at row {i}: predictions have {pid!r}, data has {did!r}")

    labels_raw = dataset.labels
    if raw_means is not None:
        preds_raw = raw_means
        labels_model = np.log1p(labels_raw)
    else:
        preds_raw = means
        labels_model = labels_raw
    summaries = [
        PredictionSummary(sample_id=i, mean=float(m), std=float(s), n_trials=t)
        for i, m, s, t in zip(ids, means, stds, trials)
    ]
    grid = _parse_z_grid(args.z_grid)
    report = metrics.build_report(preds_raw, labels_raw, k=args.k,
                                  summaries=summaries, labels_model_space=labels_model,
                                  z_grid=grid)
    _write_json(args.out, report.to_dict())
    artifacts = [args.out]

    curve_path = args.curve_out
    if curve_path is None:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        curve_path = stem + ".curve.csv"
    rows = [(_fmt(z), _fmt(acc)) for z, acc in report.confidence_curve]
    datamod.write_csv(curve_path, ["z", "accuracy"], rows)
    artifacts.append(curve_path)

    resolved = {"k": args.k, "z_grid": args.z_grid,
                "preds": args.preds, "data": args.data}
    _write_manifest(args.out, "evaluate", resolved, 0, artifacts, started)
    print(f"n={report.n} gini={report.normalized_gini:.4f} "
          f"mape@{args.k:g}={report.top_k_mape:.4f} "
          f"hit@{args.k:g}={report.top_k_hit_rate:.4f}; report at {args.out}")
    return 0


def _mean_std(values):
    """Sample mean and std; ValueError if either overflows a double."""
    n = len(values)
    try:
        mean = math.fsum(values) / n
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    except OverflowError:
        mean = var = math.inf
    if not (math.isfinite(mean) and math.isfinite(var)):
        _fail(f"metric spread over reps overflows (values up to {max(map(abs, values)):.3g}); "
              "the model's predictions are out of range")
    return mean, math.sqrt(var)


def cmd_sweep_trials(args):
    started = time.time()
    ckpt = nn.load_checkpoint(args.model)
    dataset = datamod.load_csv(args.data)
    ds = _standardized_for(ckpt, dataset)
    seed = _resolve_seed(args.seed, None)
    try:
        grid = [int(t) for t in args.grid.split(",")]
    except ValueError:
        _fail(f"grid must be comma-separated integers, got {args.grid!r}")
    if not grid or any(t < 1 for t in grid):
        _fail(f"grid entries must be >= 1, got {args.grid!r}")
    if args.reps < 1:
        _fail("reps must be >= 1")

    labels = dataset.labels
    rows = []
    for t in grid:
        ginis, mapes = [], []
        for rep in range(args.reps):
            cfg = McdConfig(trials=t, master_seed=seed + rep, batch_size=args.batch_size)
            summaries = mcd_predict(ckpt.network, ds, cfg, loss_kind=ckpt.loss_kind)
            preds_raw = _raw_space(ckpt.loss_kind, [s.mean for s in summaries])
            ginis.append(metrics.normalized_gini(preds_raw, labels))
            mapes.append(metrics.top_k_mape(preds_raw, labels, args.k))
        g_mean, g_std = _mean_std(ginis)
        m_mean, m_std = _mean_std(mapes)
        rows.append((t, _fmt(g_mean), _fmt(g_std), _fmt(m_mean), _fmt(m_std)))
        print(f"T={t}: gini {g_mean:.4f} +/- {g_std:.5f}, "
              f"mape@{args.k:g} {m_mean:.4f} +/- {m_std:.5f}")

    header = ["trials", "gini_mean", "gini_std", "mape_mean", "mape_std"]
    datamod.write_csv(args.out, header, rows)
    resolved = {"grid": grid, "reps": args.reps, "k": args.k,
                "batch_size": args.batch_size, "model": args.model}
    _write_manifest(args.out, "sweep-trials", resolved, seed, [args.out], started)
    print(f"sweep table at {args.out}")
    return 0


def cmd_compare(args):
    started = time.time()
    train_dict, model_dict, test_fraction, seed, (_, test_raw), (train_std, test_std) = \
        _prepare_training(args)
    labels = test_raw.labels

    def fit(kind, loss):
        cfg = trainer.TrainConfig.from_dict({**train_dict, "loss": loss})
        net = _build_network(kind, train_std.dim, losses.head_width(loss),
                             model_dict, seed)
        net, _ = trainer.train(net, train_std, cfg)
        return net

    def eval_preds(net, loss):
        out, _ = net.forward(test_std.features, "eval")
        if loss == "ziln":
            return losses.ziln_predict(out)
        return _raw_space(loss, out[:, 0])

    def mcd_preds(net, loss):
        cfg = McdConfig(trials=args.trials, master_seed=seed)
        summaries = mcd_predict(net, test_std, cfg, loss_kind=loss)
        return _raw_space(loss, [s.mean for s in summaries])

    mlp = fit("mlp", "log_mse")
    dcn = fit("dcnv2", "log_mse")
    ziln_net = fit("mlp", "ziln")
    table = [
        ("raw-mlp", eval_preds(mlp, "log_mse")),
        ("mcd-mlp", mcd_preds(mlp, "log_mse")),
        ("raw-dcnv2", eval_preds(dcn, "log_mse")),
        ("mcd-dcnv2", mcd_preds(dcn, "log_mse")),
        ("ziln", eval_preds(ziln_net, "ziln")),
    ]

    rows = []
    for name, preds in table:
        gini = metrics.normalized_gini(preds, labels)
        mape = metrics.top_k_mape(preds, labels, args.k)
        hit = metrics.top_k_hit_rate(preds, labels, args.k)
        rows.append((name, _fmt(gini), _fmt(mape), _fmt(hit)))
        print(f"{name:<10} gini={gini:.4f} mape@{args.k:g}={mape:.4f} "
              f"hit@{args.k:g}={hit:.4f}")

    header = ["model", "normalized_gini", "top_k_mape", "top_k_hit_rate"]
    datamod.write_csv(args.out, header, rows)
    resolved = {"train": train_dict, "model": model_dict,
                "test_fraction": test_fraction, "trials": args.trials, "k": args.k}
    _write_manifest(args.out, "compare", resolved, seed, [args.out], started)
    print(f"comparison table at {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltvmcd",
        description="Monte Carlo dropout uncertainty estimation for "
                    "zero-inflated LTV regression",
    )
    parser.add_argument("--version", action="version", version=f"ltvmcd {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-data", help="generate a synthetic zero-inflated dataset")
    p.add_argument("--config", required=True, help="SynthConfig JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="split, standardize, train, checkpoint")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--model", required=True, choices=("mlp", "dcnv2"))
    p.add_argument("--loss", default="log_mse", choices=("log_mse", "ziln"))
    p.add_argument("--config", default=None, help="train config JSON file")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--history-out", default=None,
                   help="loss history CSV (default: <out>.history.csv)")
    p.add_argument("--test-out", default=None,
                   help="also write the held-out raw test split to this CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="MCD inference: per-sample mean and std")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=0,
                   help="rows per forward pass (0 = whole dataset)")
    p.add_argument("--keep-trials", action="store_true",
                   help="also write one column per trial (large at big T)")
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against labels")
    p.add_argument("--preds", required=True, help="predictions CSV from predict")
    p.add_argument("--data", required=True, help="dataset CSV with labels")
    p.add_argument("--k", type=float, default=0.05)
    p.add_argument("--z-grid", default="0:1:0.05", help="start:stop:step")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--curve-out", default=None,
                   help="confidence curve CSV (default: derived from --out)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-trials",
                       help="metric stability across MCD trial counts")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset CSV with labels")
    p.add_argument("--grid", default="1,4,16,64,256",
                   help="comma-separated trial counts")
    p.add_argument("--reps", type=int, default=10,
                   help="independent seeds per trial count")
    p.add_argument("--k", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.set_defaults(func=cmd_sweep_trials)

    p = sub.add_parser("compare",
                       help="metric table for raw/MCD MLP, raw/MCD DCNv2, and ZILN")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", default=None, help="train config JSON file")
    p.add_argument("--trials", type=int, default=64, help="trials for MCD rows")
    p.add_argument("--k", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="comparison CSV path")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ltvmcd: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
