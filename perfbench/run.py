"""Run one workload of the crosshex benchmark and print its result.

    python3 perfbench/run.py --workload wide-verify --seed 1 --seconds 20 --trace 0

Run it from the root of a crosshex checkout.  The workload runs in a child
Python process whose BLAS libraries are pinned to one thread and which
imports crosshex from the checkout's ``src/``; this process only checks
the checkout, starts the child, waits for it and passes on its exit code.
The last line of standard output is the JSON result (see README.md).
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    for needed in (os.path.join(src, "crosshex", "cli.py"), os.path.join(root, "BENCHMARK.json")):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} is missing; run from the root of a crosshex checkout", file=sys.stderr)
            return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # run() has killed the child and waited for it
        print(f"perfbench: the run did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
