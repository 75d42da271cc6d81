"""In-memory span recorder wrapped around ltvmcd's public functions.

Nothing inside ``src/`` is edited. ``Tracer.install`` replaces functions,
methods and classes at the attribute the caller looks up at call time
(for example ``ltvmcd.cli.mcd_predict``, which ``cli`` imported by name,
or ``ltvmcd.nn.Dense.forward``, which every instance resolves through its
class) and ``uninstall`` puts the originals back.

A span is ``[name, parent_index, start, end]`` with ``time.perf_counter``
times; the parent is the innermost span open when it started. Self time
is a span's duration minus the durations of its direct children, which
is exact here because the pipeline is single-threaded and children never
overlap. Counters are bumped at the same boundaries. Spans stay in memory
until ``take`` hands them over at the end of each pass.
"""

import functools
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

from ltvmcd import cli, data, losses, mcd, metrics, nn, numcore, trainer

# Per-layer metrics in output order: name -> unit. BENCHMARK.json lists the
# same names; test_smoke.py checks that the two agree.
PER_LAYER_UNITS = {
    "numcore.matmul.calls": "count",
    "numcore.matmul.s": "s",
    "numcore.matmul.gflop": "GFLOP",
    "numcore.ensure_finite.calls": "count",
    "numcore.ensure_finite.s": "s",
    "numcore.ensure_finite.mb": "MB",
    "numcore.rng_stream.created": "count",
    "numcore.rng_stream.init_s": "s",
    "numcore.rng.draws": "count",
    "numcore.adam_step.calls": "count",
    "numcore.adam_step.s": "s",
    "nn.network.forward.calls": "count",
    "nn.network.forward.rows": "count",
    "nn.network.forward.s": "s",
    "nn.network.backward.s": "s",
    "nn.dense.forward.s": "s",
    "nn.relu.forward.s": "s",
    "nn.dropout.forward.s": "s",
    "nn.cross.forward.s": "s",
    "nn.dense.backward.s": "s",
    "nn.relu.backward.s": "s",
    "nn.cross.backward.s": "s",
    "nn.dropout.sample_mask.s": "s",
    "nn.load_checkpoint.s": "s",
    "nn.save_checkpoint.s": "s",
    "nn.prefix.useful_ratio": "ratio",
    "losses.log_mse.calls": "count",
    "losses.log_mse.s": "s",
    "trainer.train.s": "s",
    "trainer.train.self_s": "s",
    "trainer.epochs": "count",
    "trainer.batches": "count",
    "mcd.mcd_predict.calls": "count",
    "mcd.mcd_predict.s": "s",
    "mcd.mcd_predict.self_s": "s",
    "mcd.forward_passes": "count",
    "mcd.summaries": "count",
    "mcd.trial_matrix_mb": "MB",
    "metrics.confidence_curve.s": "s",
    "metrics.confidence_interval.calls": "count",
    "metrics.normalized_gini.s": "s",
    "metrics.top_k_mape.s": "s",
    "metrics.top_k_hit_rate.s": "s",
    "data.load_csv.s": "s",
    "data.load_csv.rows": "count",
    "data.save_csv.s": "s",
    "data.save_csv.mb": "MB",
    "data.generate_synthetic.s": "s",
    "data.split.s": "s",
    "data.standardize.s": "s",
    "cli.gen_data.self_s": "s",
    "cli.train.self_s": "s",
    "cli.predict.self_s": "s",
    "cli.evaluate.self_s": "s",
    "cli.sweep_trials.self_s": "s",
}

# Exact counts: two traced runs of one seed must report the same values.
EXACT_COUNTS = (
    "numcore.matmul.calls",
    "numcore.rng_stream.created",
    "mcd.forward_passes",
    "trainer.batches",
)


def _prefix_layers(net):
    """Layers that run before the first active dropout in mc_sample mode.

    Their output does not depend on the trial, so one evaluation per input
    chunk is all an MCD call needs. Empty when the structure is unknown.
    """
    arch = getattr(net, "arch", None)
    if arch == "mlp":
        branches, tail = [], list(getattr(net, "stack", []))
    elif arch == "dcnv2":
        branches, tail = list(getattr(net, "cross", [])), list(getattr(net, "deep", []))
    else:
        return []
    prefix = []
    for layer in tail:
        if getattr(layer, "kind", None) == "dropout" and getattr(layer, "p", 0.0) > 0.0:
            break
        prefix.append(layer)
    return branches + prefix


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []
        self._prefix_ids = frozenset()
        self._in_mcd = 0

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def take(self):
        """Hand over and forget everything recorded since the last call."""
        spans, counts = self.spans, Counter(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _timed(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args, kwargs)`` and
        ``after(result, args)`` update counters around the call."""
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _wrap(self, owner, attr, name, before=None, after=None):
        self._patch(owner, attr, self._timed(name, getattr(owner, attr), before, after))

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._install_numcore(self.counts)
        self._install_nn(self.counts)
        self._install_mcd(self.counts)
        self._install_rest(self.counts)

    def _install_numcore(self, counts):
        def matmul_flops(args, kwargs):
            a, b = args[0], args[1]
            if np.ndim(a) == 2 and np.ndim(b) == 2:
                counts["numcore.matmul.gflop"] += 2 * a.shape[0] * a.shape[1] * b.shape[1] / 1e9

        def finite_bytes(args, kwargs):
            counts["numcore.ensure_finite.mb"] += np.asarray(args[0]).nbytes / 1e6

        self._wrap(numcore, "matmul", "numcore.matmul", before=matmul_flops)
        traced_finite = self._timed("numcore.ensure_finite", numcore.ensure_finite, finite_bytes)
        for module in (numcore, losses, data):
            self._patch(module, "ensure_finite", traced_finite)
        self._patch(trainer, "adam_step",
                    self._timed("numcore.adam_step", trainer.adam_step))

        base = numcore.RngStream
        enter, leave = self._enter, self._exit

        class TracedRngStream(base):
            def __init__(self, master_seed, label):
                idx = enter("numcore.rng_stream")
                try:
                    base.__init__(self, master_seed, label)
                finally:
                    leave(idx)

            def uniform(self, n):
                counts["numcore.rng.draws"] += n
                return base.uniform(self, n)

            def normal(self, n):
                counts["numcore.rng.draws"] += n
                return base.normal(self, n)

            def permutation(self, n):
                counts["numcore.rng.draws"] += n
                return base.permutation(self, n)

        for module in (numcore, mcd, nn, trainer, data):
            self._patch(module, "RngStream", TracedRngStream)

    def _install_nn(self, counts):
        tracer = self

        def forward_rows(args, kwargs):
            counts["nn.network.forward.rows"] += np.shape(args[1])[0]
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "eval")
            if mode == "train":
                counts["trainer.batches"] += 1
            if tracer._in_mcd:
                counts["mcd.forward_passes"] += 1

        def prefix_eval(args, kwargs):
            if id(args[0]) in tracer._prefix_ids:
                counts["nn.prefix.evals"] += 1

        self._wrap(nn.Network, "forward", "nn.network.forward", before=forward_rows)
        self._wrap(nn.Network, "backward", "nn.network.backward")
        for cls, kind in ((nn.Dense, "dense"), (nn.Relu, "relu"),
                          (nn.Dropout, "dropout"), (nn.Cross, "cross")):
            self._wrap(cls, "forward", f"nn.{kind}.forward", before=prefix_eval)
            if kind != "dropout":
                self._wrap(cls, "backward", f"nn.{kind}.backward")
        self._wrap(nn.Dropout, "sample_mask", "nn.dropout.sample_mask")
        self._wrap(nn, "load_checkpoint", "nn.load_checkpoint")
        self._wrap(nn, "save_checkpoint", "nn.save_checkpoint")

    def _install_mcd(self, counts):
        tracer = self
        original = cli.mcd_predict
        enter, leave = self._enter, self._exit

        @functools.wraps(original)
        def traced_mcd_predict(net, dataset, cfg, *args, **kwargs):
            n = np.shape(dataset.features)[0]
            step = cfg.batch_size if cfg.batch_size > 0 else n
            prefix = _prefix_layers(net)
            counts["mcd.trial_matrix_mb"] += n * cfg.trials * 8 / 1e6
            counts["nn.prefix.needed"] += math.ceil(n / step) * len(prefix)
            tracer._prefix_ids = frozenset(id(layer) for layer in prefix)
            tracer._in_mcd += 1
            idx = enter("mcd.mcd_predict")
            try:
                result = original(net, dataset, cfg, *args, **kwargs)
            finally:
                leave(idx)
                tracer._in_mcd -= 1
                tracer._prefix_ids = frozenset()
            if isinstance(result, list):  # one PredictionSummary per sample
                counts["mcd.summaries"] += len(result)
            return result

        self._patch(cli, "mcd_predict", traced_mcd_predict)

    def _install_rest(self, counts):
        interval = metrics.confidence_interval

        @functools.wraps(interval)
        def counted_interval(*args, **kwargs):
            counts["metrics.confidence_interval.calls"] += 1
            return interval(*args, **kwargs)

        self._patch(metrics, "confidence_interval", counted_interval)
        for fn in ("confidence_curve", "normalized_gini", "top_k_mape", "top_k_hit_rate"):
            self._wrap(metrics, fn, f"metrics.{fn}")

        self._wrap(losses, "log_mse", "losses.log_mse")

        def epochs(result, args):
            counts["trainer.epochs"] += len(result[1])

        self._wrap(trainer, "train", "trainer.train", after=epochs)

        def rows_loaded(result, args):
            counts["data.load_csv.rows"] += result.n

        def bytes_saved(result, args):
            counts["data.save_csv.mb"] += os.path.getsize(args[1]) / 1e6

        self._wrap(data, "load_csv", "data.load_csv", after=rows_loaded)
        self._wrap(data, "save_csv", "data.save_csv", after=bytes_saved)
        for fn in ("generate_synthetic", "split", "standardize"):
            self._wrap(data, fn, f"data.{fn}")

        for stage in ("gen_data", "train", "predict", "evaluate", "sweep_trials"):
            self._wrap(cli, f"cmd_{stage}", f"cli.{stage}")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(spans, counts):
    """Per-layer metrics of one pass from its spans and counters."""
    total = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    for name, parent, start, end in spans:
        dur = end - start
        total[name] += dur
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
    self_time = defaultdict(float)
    for idx, (name, _, start, end) in enumerate(spans):
        self_time[name] += (end - start) - child[idx]

    out = {}
    for key in PER_LAYER_UNITS:
        name, _, stat = key.rpartition(".")
        if stat == "calls":
            out[key] = counts[key] if key in counts else calls[name]
        elif stat == "s":
            out[key] = total[name]
        elif stat == "self_s":
            out[key] = self_time[name]
        else:
            out[key] = counts.get(key, 0)
    out["numcore.rng_stream.created"] = calls["numcore.rng_stream"]
    out["numcore.rng_stream.init_s"] = total["numcore.rng_stream"]
    evals = counts.get("nn.prefix.evals", 0)
    out["nn.prefix.useful_ratio"] = counts.get("nn.prefix.needed", 0) / evals if evals else 0.0
    return out
