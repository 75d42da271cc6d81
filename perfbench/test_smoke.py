"""Smoke test of the benchmark harness at a tiny input size: every workload,
traced and untraced, the artifact checks, and the refusal to run without
the package sources.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ltvmcd import cli, mcd  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SEED = 3
COMMANDS_PER_PASS = {"mcd_mlp": 2, "fit_mlp": 2, "sweep_dcnv2": 1}


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(root, name, trace):
    out = io.StringIO()
    result = harness.run(name, SEED, 0.0, trace, str(root), import_s=0.1, blas_threads=1,
                         scale=workloads.TINY, out=out)
    return result, out.getvalue()


def test_benchmark_json_lists_the_reported_metrics():
    doc = _bench_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER_UNITS
    assert sorted(w["name"] for w in doc["workloads"]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run(tmp_path, name):
    result, text = _run(tmp_path, name, False)
    assert result["correct"], text
    assert result["failed"] == 0
    assert result["attempted"] == (1 + harness.MIN_PASSES) * COMMANDS_PER_PASS[name]
    assert list(result["metrics"]) == list(harness.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "op_fail_ratio" in text and "blas_threads=" in text
    assert os.listdir(tmp_path / harness.WORK_DIRNAME) == []


ACTIVE = {
    "mcd_mlp": ("mcd.forward_passes", "metrics.confidence_interval.calls", "cli.predict.self_s"),
    "fit_mlp": ("trainer.batches", "losses.log_mse.calls", "data.save_csv.mb"),
    "sweep_dcnv2": ("nn.cross.forward.s", "numcore.rng_stream.created", "metrics.top_k_mape.s"),
}


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_their_counts(tmp_path, name):
    first, text = _run(tmp_path, name, True)
    second, _ = _run(tmp_path, name, True)
    assert first["correct"] and second["correct"], text
    assert list(first["metrics"]) == list(harness.PER_LAYER_UNITS)
    for key in tracer.EXACT_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    for key in ACTIVE[name]:
        assert first["metrics"][key]["value"] > 0, key
    assert "trace.overhead_ratio" in text
    assert (tmp_path / harness.OUT_DIRNAME / f"spans-{name}-seed{SEED}.csv").stat().st_size > 0
    assert cli.mcd_predict is mcd.mcd_predict  # the tracer put everything back


def test_prefix_ratio_is_one_over_trials(tmp_path):
    result, _ = _run(tmp_path, "mcd_mlp", True)
    assert result["metrics"]["nn.prefix.useful_ratio"]["value"] == 1 / workloads.TINY.trials


@pytest.fixture
def predict_run(tmp_path):
    wl = workloads.WORKLOADS["mcd_mlp"]
    inputs = wl.setup(str(tmp_path), SEED, workloads.TINY)
    predict = wl.commands(str(tmp_path), inputs, SEED, workloads.TINY)[0]
    return predict, wl.context(inputs, workloads.TINY)


def test_checks_accept_repeated_identical_output(predict_run):
    predict, ctx = predict_run
    tally = harness.Tally()
    checker = harness.ArtifactChecker(ctx, expected=None)
    for _ in range(2):
        harness.run_command(predict, checker, tally)
    assert (tally.attempted, tally.failed) == (2, 0)


def test_checks_reject_a_recorded_digest_mismatch(predict_run):
    predict, ctx = predict_run
    tally = harness.Tally()
    harness.run_command(predict, harness.ArtifactChecker(ctx, {"preds.csv": "0" * 64}), tally)
    assert tally.failed == 1 and "recorded digest" in tally.errors[0]


def test_checks_reject_changed_bytes_and_bad_structure(predict_run):
    predict, ctx = predict_run
    tally = harness.Tally()
    checker = harness.ArtifactChecker(ctx, expected=None)
    harness.run_command(predict, checker, tally)
    path = predict.outputs["preds.csv"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split(",")
    fields[2] = "-1.0"
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="negative std"):
        workloads.CHECKS["predict"](predict.outputs, ctx)
    with pytest.raises(workloads.CheckFailed, match="first pass"):
        checker.check(predict)


def test_digests_of_another_environment_are_not_checked_but_flagged():
    with open(harness.DIGESTS_PATH, encoding="utf-8") as fh:
        env = json.load(fh)["fingerprint"]  # the environment the digests hold for
    digests, note = harness.shipped_digests(env, "mcd_mlp", 0)
    assert digests is not None, note
    digests, note = harness.shipped_digests({**env, "openblas_core": "Other"}, "mcd_mlp", 0)
    assert digests is None and note.startswith("WARNING") and "openblas_core" in note
    digests, note = harness.shipped_digests(env, "mcd_mlp", 10_000)
    assert digests is None and "none recorded" in note


def test_failed_command_counts(predict_run):
    predict, ctx = predict_run
    argv = list(predict.argv)
    argv[argv.index("--model") + 1] = "missing.ckpt"
    tally = harness.Tally()
    harness.run_command(workloads.Command("predict", argv, predict.outputs),
                        harness.ArtifactChecker(ctx, None), tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit 1" in tally.errors[0]


def test_sweep_check_needs_one_row_per_grid_entry(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("trials,gini_mean,gini_std,mape_mean,mape_std\n1,0.5,0.1,0.9,0.01\n")
    with pytest.raises(workloads.CheckFailed, match="grid"):
        workloads.CHECKS["sweep-trials"]({"sweep.csv": str(path)}, {"scale": workloads.TINY})


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcd_mlp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
