"""Record the SHA-256 of every primary artifact of one pass of each workload,
for every seed the benchmark ships (SEEDS), into digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose outputs are known to be right;
each artifact passes the structural checks before its digest is kept. A
run of the benchmark then requires byte-identical artifacts for these
seeds, in the environment (numpy, OpenBLAS build and core, BLAS threads,
Python, machine) recorded beside them. Re-record only in a change that
alters the artifacts on purpose, and say why. The file is rewritten from
scratch, always for all of SEEDS.
"""

import json
import os
import shutil
import sys

import run  # pins the BLAS thread count before numpy is imported

sys.path.insert(0, run.SRC)
import harness  # noqa: E402
import workloads  # noqa: E402


SEEDS = range(32)  # the seeds whose digests ship with the benchmark


def record(seed, name, root):
    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(root, harness.WORK_DIRNAME, f"record-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = wl.setup(workdir, seed, workloads.FULL)
        checker = harness.ArtifactChecker(wl.context(inputs, workloads.FULL), None)
        tally = harness.Tally()
        for cmd in wl.commands(workdir, inputs, seed, workloads.FULL):
            harness.run_command(cmd, checker, tally)
        if tally.failed:
            raise SystemExit(f"{name} seed {seed}: {tally.errors}")
        return dict(sorted(checker.reference.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    env = harness.environment(run.BLAS_THREADS)
    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for seed in SEEDS:
            digests[name][str(seed)] = record(seed, name, run.ROOT)
            print(f"{name} seed {seed}: {len(digests[name][str(seed)])} artifacts", flush=True)
    doc = {"fingerprint": harness.fingerprint(env), "digests": digests}
    with open(harness.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
