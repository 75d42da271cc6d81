"""One benchmark run: set up a workload's inputs, drive its CLI commands in a
closed loop (each command starts after the previous one returned; one
client), check every artifact, and report metrics.

Import this module only after the BLAS thread count is pinned in the
environment (run.py does that), because numpy reads it on import.
"""

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import ltvmcd
from ltvmcd import cli

import tracer as tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
WORK_DIRNAME = ".perfbench_work"  # scratch inputs and artifacts, removed at exit
OUT_DIRNAME = ".perfbench_out"  # span dumps of traced runs

SETUP_REPS = 5
MIN_PASSES = 3  # timed passes of each kind: untraced, and in a traced run also traced

END_TO_END_UNITS = {"setup_s": "s", "main_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.untraced_pass_s": "s", "trace.traced_pass_s": "s",
               "trace.overhead_ratio": "ratio"}
PER_LAYER_UNITS = {**tracing.PER_LAYER_UNITS, **TRACE_UNITS}

# Per-command times, printed in the report; not gated (see NOTES.md).
STAGE_METRICS = {"gen-data": "gen_data_s", "train": "train_s", "predict": "predict_s",
                 "evaluate": "evaluate_s", "sweep-trials": "sweep_s"}


# -- environment -------------------------------------------------------------


def _openblas():
    """(configuration, core, threads) of the OpenBLAS numpy loaded, read
    through its C API; "unknown" where that is not available."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                config = getattr(lib, f"{prefix}get_config{suffix}")
                core = getattr(lib, f"{prefix}get_corename{suffix}")
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = core.restype = ctypes.c_char_p
            config.argtypes = core.argtypes = threads.argtypes = []
            threads.restype = ctypes.c_int
            return config().decode().strip(), core().decode(), threads()
    return "unknown", "unknown", -1


def environment(blas_threads_pinned):
    config, core, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": blas_threads_pinned,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "openblas_core": core,
        "machine": platform.machine(),
        "ltvmcd": ltvmcd.__version__,
    }


def fingerprint(env):
    """The environment a recorded digest holds for: artifacts are byte-
    identical only under the same numpy, BLAS kernel and thread count."""
    keys = ("python", "numpy", "openblas", "openblas_core", "blas_threads", "machine")
    return {k: env[k] for k in keys}


def shipped_digests(env, workload, seed):
    """(digests, note): the recorded artifact digests for this workload and
    seed, or None and the reason none are checked."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    digests = doc.get("digests", {}).get(workload, {}).get(str(seed))
    if digests is None:
        return None, (f"none recorded for seed {seed}: structural checks and "
                      "byte-identity across passes only")
    recorded = doc.get("fingerprint", {})
    differs = [f"{k} (recorded {recorded.get(k)}, here {v})"
               for k, v in fingerprint(env).items() if recorded.get(k) != v]
    if differs:
        return None, ("WARNING: recorded for this seed but NOT checked, because the "
                      "environment differs in " + "; ".join(differs))
    return digests, "recorded for this seed and environment: checked"


# -- commands and checks -----------------------------------------------------


class Tally:
    """Commands attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


class ArtifactChecker:
    """The first time a stage runs, its artifacts get the full structural
    check and, where digests were recorded, must match them. After that,
    they must be byte-identical to that first output."""

    def __init__(self, ctx, expected):
        self.ctx = ctx
        self.expected = expected
        self.reference = {}  # artifact name -> digest of its first output

    def check(self, cmd):
        digests = {}
        for name, path in cmd.outputs.items():
            workloads.expect(os.path.isfile(path), f"{name}: not written")
            digests[name] = workloads.sha256(path)
        if not all(name in self.reference for name in digests):
            workloads.CHECKS[cmd.stage](cmd.outputs, self.ctx)
            if self.expected is not None:
                for name, digest in digests.items():
                    workloads.expect(self.expected.get(name) == digest,
                                     f"{name}: sha256 differs from the recorded digest")
            self.reference.update(digests)
            return
        for name, digest in digests.items():
            workloads.expect(digest == self.reference[name],
                             f"{name}: bytes differ from the first pass of this run")


def run_command(cmd, checker, tally):
    """Run one CLI command through ``ltvmcd.cli.main``; returns its wall time."""
    for path in cmd.outputs.values():  # a failed command must not pass on stale files
        if os.path.exists(path):
            os.unlink(path)
    tally.attempted += 1
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # the loop goes on; the failure is counted and shown
        rc = None
        error = traceback.format_exc(limit=-3).strip()
    elapsed = time.perf_counter() - start
    if rc != 0:
        tally.fail(f"{cmd.stage}: exit {rc}: {error or captured.getvalue().strip()[-400:]}")
        return elapsed
    try:
        checker.check(cmd)
    except (workloads.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        tally.fail(f"{cmd.stage}: {exc}")
    return elapsed


def one_pass(commands, checker, tally):
    """Run the workload's commands once; returns {stage: seconds}."""
    return {cmd.stage: run_command(cmd, checker, tally) for cmd in commands}


def repeat(step, seconds):
    """Call ``step`` for about ``seconds``, and at least MIN_PASSES times."""
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(walls) <= seconds):
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)


# -- statistics and output ---------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _line(name, unit, values):
    q1, median, q3 = quartiles(values)
    return (f"  {name:<34} {median:12.6g} {unit:<6} q1={q1:.6g} q3={q3:.6g} "
            f"n={len(values)}")


def _write_spans(path, traced_spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,index,parent,name,start_s,end_s\n")
        for p, spans in enumerate(traced_spans):
            origin = spans[0][2] if spans else 0.0
            for idx, (name, parent, start, end) in enumerate(spans):
                fh.write(f"{p},{idx},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")


def _set_up_in_child(wl, workdir, seed, scale):
    """Generate the inputs in a forked child and return their files. The
    fixture training of the inference workloads then does not count
    towards this process's peak RSS, which is left to the commands."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            try:
                reply = {"inputs": wl.setup(workdir, seed, scale)}
                status = 0
            except BaseException:
                reply = {"error": traceback.format_exc(limit=-3)}
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(reply, fh)
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        reply = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"set-up failed in its child process: {reply}")
    return json.loads(reply)["inputs"]


def _set_up(wl, workdir, seed, scale, tally):
    """Generate the inputs SETUP_REPS times; the copies must be identical.
    Returns the first copy's files and the time of every set-up."""
    times, inputs = [], None
    for rep in range(SETUP_REPS):
        d = os.path.join(workdir, f"setup{rep}")
        os.makedirs(d)
        t0 = time.perf_counter()
        made = _set_up_in_child(wl, d, seed, scale)
        times.append(time.perf_counter() - t0)
        if inputs is None:
            inputs = made
            continue
        for name, path in made.items():
            if workloads.sha256(path) != workloads.sha256(inputs[name]):
                tally.fail(f"setup: {name} differs between set-ups of one seed")
        shutil.rmtree(d)
    return inputs, times


def _traced_passes(commands, checker, tally, seconds):
    """Untraced and traced passes alternate, in pairs ordered AB, BA, AB, ...,
    so that drift in the machine's speed falls on both kinds alike. Returns
    the untraced and the traced samples, the per-layer metrics of each
    traced pass, and the spans of each traced pass."""
    tracer = tracing.Tracer()
    plain, traced, per_pass, spans_per_pass = [], [], [], []

    def untraced_pass():
        plain.append(one_pass(commands, checker, tally))

    def traced_pass():
        tracer.install()
        try:
            traced.append(one_pass(commands, checker, tally))
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        spans_per_pass.append(spans)
        per_pass.append(tracing.layer_metrics(spans, counts))

    def pair():
        first, second = ((untraced_pass, traced_pass) if len(traced) % 2 == 0
                         else (traced_pass, untraced_pass))
        first()
        second()

    repeat(pair, seconds)
    return plain, traced, per_pass, spans_per_pass


def run(workload_name, seed, seconds, trace, root, import_s, blas_threads,
        scale=workloads.FULL, out=sys.stdout):
    """One benchmark run; prints the report to ``out`` and returns the
    result that run.py prints as the last line."""
    wl = workloads.WORKLOADS[workload_name]
    env = environment(blas_threads)
    if scale == workloads.FULL:
        expected, digest_note = shipped_digests(env, workload_name, seed)
    else:
        expected, digest_note = None, "none for this input scale"
    workdir = os.path.join(root, WORK_DIRNAME, f"{workload_name}-{seed}-{os.getpid()}")
    tally = Tally()
    try:
        inputs, setup_times = _set_up(wl, workdir, seed, scale, tally)
        commands = wl.commands(workdir, inputs, seed, scale)
        checker = ArtifactChecker(wl.context(inputs, scale), expected)
        for cmd in commands:  # warm-up pass: full checks, not timed
            run_command(cmd, checker, tally)
        if trace:
            plain, samples, per_pass, spans = _traced_passes(commands, checker, tally, seconds)
            _write_spans(os.path.join(root, OUT_DIRNAME, f"spans-{workload_name}-seed{seed}.csv"),
                         spans)
        else:
            samples = []
            repeat(lambda: samples.append(one_pass(commands, checker, tally)), seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = [import_s + t for t in setup_times]
    pass_s = [sum(s.values()) for s in samples]
    main_s = [s[wl.main_stage] for s in samples]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"perfbench workload={workload_name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"loop=closed clients=1", file=out)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), file=out)
    print(f"inputs {wl.describe(scale)}", file=out)
    print(f"digests {digest_note}", file=out)
    if digest_note.startswith("WARNING"):
        print(f"perfbench: digests {digest_note}", file=sys.stderr)
    print(f"end-to-end ({'traced ' if trace else ''}passes; median, quartiles, sample count):",
          file=out)
    print(_line("setup_s", "s", setup_s), file=out)
    for cmd in commands:
        print(_line(STAGE_METRICS[cmd.stage], "s", [s[cmd.stage] for s in samples]), file=out)
    print(_line("main_s", "s", main_s) + f"  ({wl.main_stage})", file=out)
    print(_line("pass_s", "s", pass_s), file=out)
    print(f"  {'peak_rss_mb':<34} {peak_rss_mb:12.6g} MB", file=out)
    print(f"  {'op_fail_ratio':<34} {tally.failed / tally.attempted:12.6g} ratio  "
          f"failed={tally.failed} attempted={tally.attempted}", file=out)
    for message in tally.errors:
        print(f"FAILED {message}", file=out)

    if trace:
        # median_low: an observed pass's value, so counts stay whole numbers
        layer = {name: statistics.median_low(p[name] for p in per_pass)
                 for name in tracing.PER_LAYER_UNITS}
        plain_s = [sum(s.values()) for s in plain]
        layer["trace.untraced_pass_s"] = statistics.median(plain_s)
        layer["trace.traced_pass_s"] = statistics.median(pass_s)
        # per pair of adjacent passes, so that slow drift cancels
        layer["trace.overhead_ratio"] = statistics.median(
            t / u - 1.0 for t, u in zip(pass_s, plain_s))
        print(f"per-layer (median over {len(per_pass)} traced passes; tracing overhead "
              f"{100 * layer['trace.overhead_ratio']:+.2f}% of the untraced pass):", file=out)
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<34} {layer[name]:14.8g} {unit}", file=out)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setup_s), "main_s": statistics.median(main_s),
                  "pass_s": statistics.median(pass_s), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}
