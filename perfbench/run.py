"""ltvmcd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Workloads are listed in workloads.py and explained in
NOTES.md. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run plus the tracing overhead. The exit code
is 0 only when every command succeeded and every artifact check passed.
"""

import argparse
import json
import os
import sys
import time

PROCESS_START = time.perf_counter()

# One BLAS thread, no more than nproc here; numpy reads this on import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The program must see only the generated inputs and the seed passed on its
# command line; this variable would override that seed.
os.environ.pop("LTVMCD_SEED", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mcd_mlp", "fit_mlp", "sweep_dcnv2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ltvmcd", "__init__.py")):
        print(f"perfbench: error: no ltvmcd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness  # imports numpy and ltvmcd, after the BLAS pin

    import_s = time.perf_counter() - PROCESS_START
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT, import_s, BLAS_THREADS)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
