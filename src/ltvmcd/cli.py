"""Command-line pipeline: synthetic data generation, training, MCD
prediction, evaluation, trial-count sweeps, and a model comparison table.

Every command is a pure function of its inputs, config, and master seed,
so re-running a command reproduces its artifacts byte for byte. Each
cmd_*(args, out) checks its options, reserves out.path(target) for every
artifact and then for the manifest <out>.manifest.json before its first
read (so a bad output path fails before any work), writes each artifact
there and returns (resolved config, seed); main() writes the manifest,
staged last, and commits them all together, only if the command
succeeded. The manifest's duration field is wall-clock and is the one
part of a run that is not reproducible.

sweep-trials runs its reps on up to mcd.MAX_WORKERS processes through
mcd.forked_map, one fork for the command, and writes the bytes a serial
loop over the reps writes; predict's one MCD call maps its passes.

Seed resolution order: LTVMCD_SEED env var, then --seed, then the config
file, then 0.

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__ as VERSION
from . import data as datamod
from . import losses, metrics, nn, trainer
from .mcd import BLOCK_ROWS, McdConfig, McdResult, call_macs, forked_map, mcd_predict
from .numcore import from_json

SEED_ENV_VAR = "LTVMCD_SEED"

# Most points a --z-grid may have; 0:1:0.0001 is the finest full grid.
MAX_Z_POINTS = 10_001


@dataclass
class ModelConfig:
    """The model section of a train config file. The MLP reads hidden_dims
    and dropout; DCNv2 reads n_cross, deep_dims and dropout."""

    hidden_dims: list[int] = field(default_factory=lambda: [128, 64, 32])
    dropout: float = 0.2
    n_cross: int = 2
    deep_dims: list[int] = field(default_factory=lambda: [64, 32])

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("hidden_dims", "deep_dims"):
            if any(d < 1 for d in getattr(self, name)):
                raise ValueError(f"{name} entries must be >= 1, got {getattr(self, name)}")
        if self.n_cross < 0:
            raise ValueError(f"n_cross must be >= 0, got {self.n_cross}")

    def build(self, kind, input_dim, out_dim, seed):
        """The untrained network of model kind "mlp" or "dcnv2"."""
        if kind == "mlp":
            return nn.build_mlp(input_dim, self.hidden_dims, self.dropout,
                                out_dim=out_dim, seed=seed)
        return nn.build_dcnv2(input_dim, self.n_cross, self.deep_dims, self.dropout,
                              out_dim=out_dim, seed=seed)


@dataclass
class TrainFile:
    """A train or compare config file; --loss or compare's rows set the loss."""

    train: trainer.TrainConfig = field(default_factory=trainer.TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    test_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


def _fail(message):
    raise ValueError(message)


def _resolve_seed(flag_seed, config_seed):
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return config_seed if flag_seed is None else flag_seed


def _load_config(cls, path):
    """The JSON config file at path as dataclass cls, through from_json;
    ValueError naming the file if it is not valid JSON or does not fit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_json(cls, json.load(fh))
    except RecursionError:
        _fail(f"{path}: JSON nested too deeply")
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def _write_json(path, doc):
    with datamod.atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def _fmt(value):
    return repr(float(value))


def _prepare_inference(args):
    """Shared start of predict and sweep-trials, once their options are
    checked: load the checkpoint and the dataset, check that their feature
    widths agree, and standardize the dataset in place with the
    checkpoint's norm. Returns (checkpoint, dataset)."""
    ckpt = nn.load_checkpoint(args.model)
    dataset = datamod.load_csv(args.data)
    if dataset.dim != ckpt.network.input_dim:
        _fail(f"{args.data} has {dataset.dim} features but checkpoint {args.model} "
              f"takes {ckpt.network.input_dim}")
    if ckpt.norm is not None:
        datamod.standardize_in_place(dataset, *ckpt.norm)
    return ckpt, dataset


def _raw_space(loss_kind, means, ids):
    """Map per-sample means into raw currency amounts; a log-space mean
    whose np.expm1 overflows is a ValueError naming its id."""
    if loss_kind != "log_mse":
        return means
    with np.errstate(over="ignore"):  # an overflow is checked next
        raw = np.expm1(means)
    finite = np.isfinite(raw)
    if not finite.all():
        _expm1_overflows(ids, means, int(finite.argmin()))
    return raw


def _expm1_overflows(ids, means, i):
    _fail(f"id {ids[i]!r}: mean {float(means[i])!r} overflows expm1; "
          "the model's predictions are out of range")


def _reserve_manifest(args, out):
    """Reserve <out>.manifest.json after the command's other outputs and
    before its first read; main writes it there once the command is done."""
    args.manifest_path = out.path(args.out + ".manifest.json")


def cmd_gen_data(args, out):
    cfg = _load_config(datamod.SynthConfig, args.config)
    cfg = replace(cfg, master_seed=_resolve_seed(args.seed, cfg.master_seed))
    path = out.path(args.out)
    _reserve_manifest(args, out)
    dataset = datamod.generate_synthetic(cfg)
    datamod.save_csv(dataset, path)
    positives = float(np.mean(dataset.labels > 0))
    print(f"wrote {dataset.n} rows x {dataset.dim} features to {args.out} "
          f"(positive rate {positives:.4f})")
    return asdict(cfg), cfg.master_seed


def _train_file(args):
    """Shared start of train and compare: read the config file and resolve
    the seed. Returns (TrainFile with the seed resolved, seed)."""
    cfg = _load_config(TrainFile, args.config) if args.config else TrainFile()
    seed = _resolve_seed(args.seed, cfg.train.master_seed)
    return replace(cfg, train=replace(cfg.train, master_seed=seed)), seed


def _split_data(args, cfg, seed):
    """Load the dataset, split off cfg's test fraction, and standardize the
    train split in place on its own statistics. Returns (train_std, test_raw)."""
    train, test = datamod.split(datamod.load_csv(args.data), 1.0 - cfg.test_fraction, seed)
    datamod.standardize_in_place(train)  # a fresh gather that nothing else holds
    return train, test


def cmd_train(args, out):
    file_cfg, seed = _train_file(args)
    ckpt_path = out.path(args.out)
    history_path = out.path(args.history_out or args.out + ".history.csv")
    test_path = out.path(args.test_out) if args.test_out else None
    _reserve_manifest(args, out)
    train_std, test_raw = _split_data(args, file_cfg, seed)
    net = file_cfg.model.build(args.model, train_std.dim, losses.head_width(args.loss), seed)
    net, history = trainer.train(net, train_std, file_cfg.train, args.loss)

    ckpt = nn.Checkpoint(network=net, loss_kind=args.loss,
                         norm=(train_std.norm_mean, train_std.norm_std))
    nn.save_checkpoint(ckpt_path, ckpt)
    rows = [(str(epoch), _fmt(tr), _fmt(val)) for epoch, tr, val in history]
    datamod.write_csv(history_path, ["epoch", "train_loss", "val_loss"], rows)
    if test_path:
        datamod.save_csv(test_raw, test_path)

    print(f"trained {args.model}/{args.loss} on {train_std.n} rows, "
          f"{len(history)} epochs, final val loss {history[-1][2]:.6g}; "
          f"checkpoint at {args.out}")
    train_cfg = {**asdict(file_cfg.train), "loss": args.loss}
    return {**asdict(file_cfg), "train": train_cfg, "model_kind": args.model}, seed


def _raw_mean(mean):
    """A predictions row's raw_mean: math.expm1(mean), or None where that
    overflows. Per value, since np.expm1 can differ in the last bit."""
    try:
        return math.expm1(mean)
    except OverflowError:
        return None


def cmd_predict(args, out):
    seed = _resolve_seed(args.seed, 0)
    cfg = McdConfig(trials=args.trials, master_seed=seed, batch_size=args.batch_size)
    path = out.path(args.out)
    _reserve_manifest(args, out)
    ckpt, ds = _prepare_inference(args)
    result = mcd_predict(ckpt.network, ds, cfg, loss_kind=ckpt.loss_kind,
                         keep_trials=args.keep_trials)

    header = ["id", "mean", "std", "n_trials"]
    means = result.mean.tolist()
    columns = [result.ids, map(_fmt, means), map(_fmt, result.std.tolist()),
               map(str, result.n_trials.tolist())]
    if ckpt.loss_kind == "log_mse":
        raw = [_raw_mean(m) for m in means]
        if None in raw:
            _expm1_overflows(result.ids, means, raw.index(None))
        header.append("raw_mean")
        columns.append(map(_fmt, raw))
    rows = zip(*columns)
    if args.keep_trials:
        header.extend(f"t{j}" for j in range(args.trials))
        rows = ([*row, *map(_fmt, trials.tolist())] for row, trials in zip(rows, result.trials))
    datamod.write_csv(path, header, rows)
    print(f"wrote {len(result)} predictions ({args.trials} trials) to {args.out}")
    return {"trials": args.trials, "batch_size": args.batch_size,
            "loss": ckpt.loss_kind, "model": args.model}, seed


def _read_predictions(path):
    """Parse a predictions CSV into (McdResult, raw_mean column or None)."""
    rows = datamod.csv_rows(path)
    try:
        _, header = next(rows)
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
    for line_no, row in rows:
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
        if not 1 <= n_trials < 2**63:
            _fail(f"{path}: line {line_no}: n_trials must be in [1, 2**63), got {row[3]}")
        if has_raw and raws[-1] != _raw_mean(mean):
            _fail(f"{path}: line {line_no}: raw_mean {row[4]} is not expm1(mean)")
        ids.append(row[0])
        means.append(mean)
        stds.append(std)
        trials.append(n_trials)
    if not ids:
        _fail(f"{path}: no prediction rows")
    result = McdResult(ids=ids, mean=np.array(means), std=np.array(stds),
                       n_trials=np.array(trials, dtype=np.int64))
    return result, np.array(raws) if has_raw else None


def _parse_z_grid(spec_str):
    parts = spec_str.split(":")
    if len(parts) != 3:
        _fail(f"z grid must look like start:stop:step, got {spec_str!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        _fail(f"z grid fields must be numbers, got {spec_str!r}")
    if not (0.0 <= start <= stop <= 1.0 and 0.0 < step < math.inf
            and stop - start <= step * (MAX_Z_POINTS - 1)):  # NaN fails too
        _fail(f"z grid needs 0 <= start <= stop <= 1, a finite step > 0 and at "
              f"most {MAX_Z_POINTS} points, got {spec_str!r}")
    count = int(round((stop - start) / step)) + 1
    grid = np.round(start + step * np.arange(count), 12)
    return grid[grid <= stop + 1e-12]


def cmd_evaluate(args, out):
    metrics.check_k(args.k)
    grid = _parse_z_grid(args.z_grid)
    curve_path = args.curve_out
    if curve_path is None:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        curve_path = stem + ".curve.csv"
    report_path, curve_path = out.path(args.out), out.path(curve_path)
    _reserve_manifest(args, out)
    result, raw_means = _read_predictions(args.preds)
    dataset = datamod.load_csv(args.data)
    if len(result) != dataset.n:
        _fail(f"{len(result)} predictions vs {dataset.n} data rows")
    for i, (pid, did) in enumerate(zip(result.ids, dataset.ids)):
        if pid != did:
            _fail(f"id mismatch at row {i}: predictions have {pid!r}, data has {did!r}")

    labels_raw = dataset.labels
    if raw_means is not None:
        preds_raw = raw_means
        labels_model = np.log1p(labels_raw)
    else:
        preds_raw = result.mean
        labels_model = labels_raw
    report = metrics.build_report(preds_raw, labels_raw, k=args.k,
                                  summaries=result, labels_model_space=labels_model,
                                  z_grid=grid)
    _write_json(report_path, asdict(report))
    rows = [(_fmt(z), _fmt(acc)) for z, acc in report.confidence_curve]
    datamod.write_csv(curve_path, ["z", "accuracy"], rows)
    print(f"n={report.n} gini={report.normalized_gini:.4f} "
          f"mape@{args.k:g}={report.top_k_mape:.4f} "
          f"hit@{args.k:g}={report.top_k_hit_rate:.4f}; report at {args.out}")
    return {"k": args.k, "z_grid": args.z_grid, "preds": args.preds, "data": args.data}, 0


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


def cmd_sweep_trials(args, out):
    metrics.check_k(args.k)
    try:
        grid = [int(t) for t in args.grid.split(",")]
    except ValueError:
        _fail(f"grid must be comma-separated integers, got {args.grid!r}")
    if not grid or any(t < 1 for t in grid):
        _fail(f"grid entries must be >= 1, got {args.grid!r}")
    if len(set(grid)) < len(grid):
        _fail(f"grid entries must be distinct, got {args.grid!r}")
    if args.reps < 1:
        _fail("reps must be >= 1")
    seed = _resolve_seed(args.seed, 0)
    # one run at the largest T per rep; each smaller T reads its first trials
    cfg = McdConfig(trials=max(grid), master_seed=seed, batch_size=args.batch_size)
    path = out.path(args.out)
    _reserve_manifest(args, out)
    ckpt, ds = _prepare_inference(args)

    labels = ds.labels

    def scores(rep):  # one rep's (gini, mape) at each grid entry
        results = mcd_predict(ckpt.network, ds, replace(cfg, master_seed=seed + rep),
                              loss_kind=ckpt.loss_kind, at=grid)
        table = np.empty((len(grid), 2))
        for row, result in zip(table, results):
            preds_raw = _raw_space(ckpt.loss_kind, result.mean, result.ids)
            row[:] = (metrics.normalized_gini(preds_raw, labels),
                      metrics.top_k_mape(preds_raw, labels, args.k))
        return table

    work = args.reps * call_macs(ckpt.network, ds.n, cfg.trials)
    tables = np.array(list(forked_map(scores, args.reps, lambda rep: (len(grid), 2), work)))
    rows = []
    for t, (ginis, mapes) in zip(grid, tables.transpose(1, 2, 0).tolist()):
        g_mean, g_std = _mean_std(ginis)
        m_mean, m_std = _mean_std(mapes)
        rows.append((str(t), _fmt(g_mean), _fmt(g_std), _fmt(m_mean), _fmt(m_std)))
        print(f"T={t}: gini {g_mean:.4f} +/- {g_std:.5f}, "
              f"mape@{args.k:g} {m_mean:.4f} +/- {m_std:.5f}")

    header = ["trials", "gini_mean", "gini_std", "mape_mean", "mape_std"]
    datamod.write_csv(path, header, rows)
    print(f"sweep table at {args.out}")
    return {"grid": grid, "reps": args.reps, "k": args.k,
            "batch_size": args.batch_size, "model": args.model}, seed


def cmd_compare(args, out):
    metrics.check_k(args.k)
    mcd_cfg = McdConfig(trials=args.trials)  # checked before the data is read
    file_cfg, seed = _train_file(args)
    path = out.path(args.out)
    _reserve_manifest(args, out)
    train_std, test_std = _split_data(args, file_cfg, seed)
    mcd_cfg = replace(mcd_cfg, master_seed=seed)
    datamod.standardize_in_place(test_std, train_std.norm_mean, train_std.norm_std)

    def fit(kind, loss):
        net = file_cfg.model.build(kind, train_std.dim, losses.head_width(loss), seed)
        net, _ = trainer.train(net, train_std, file_cfg.train, loss)
        return net

    def eval_preds(net, loss):
        head, _ = net.forward(test_std.features, "eval")
        return _raw_space(loss, losses.point_fn(loss)(head), test_std.ids)

    def mcd_preds(net, loss):
        return _raw_space(loss, mcd_predict(net, test_std, mcd_cfg, loss_kind=loss).mean, test_std.ids)

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
        r = metrics.build_report(preds, test_std.labels, k=args.k)
        rows.append((name, _fmt(r.normalized_gini), _fmt(r.top_k_mape), _fmt(r.top_k_hit_rate)))
        print(f"{name:<10} gini={r.normalized_gini:.4f} mape@{args.k:g}={r.top_k_mape:.4f} "
              f"hit@{args.k:g}={r.top_k_hit_rate:.4f}")

    header = ["model", "normalized_gini", "top_k_mape", "top_k_hit_rate"]
    datamod.write_csv(path, header, rows)
    print(f"comparison table at {args.out}")
    return {**asdict(file_cfg), "trials": args.trials, "k": args.k}, seed


BATCH_HELP = (f"rows per forward pass (0 = blocks of {BLOCK_ROWS} rows, a remainder of "
              f"fewer than {BLOCK_ROWS // 2} joining the last one)")


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
    p.add_argument("--loss", default="log_mse", choices=tuple(losses.HEAD_WIDTHS))
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
    p.add_argument("--batch-size", type=int, default=0, help=BATCH_HELP)
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
    p.add_argument("--batch-size", type=int, default=0, help=BATCH_HELP)
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
    started = time.time()
    try:
        with datamod.staged_outputs() as out:
            config, seed = args.func(args, out)
            manifest = {"command": args.command, "config": config, "master_seed": seed,
                        "artifacts": out.targets[:-1],  # the manifest is staged last
                        "version": VERSION,
                        "duration_seconds": round(time.time() - started, 3)}
            _write_json(args.manifest_path, manifest)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"ltvmcd: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
