#!/usr/bin/env python3
"""Build the mediator benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program (perfbench/bench.ml) is built with dune into
_build/ inside the checkout; build output goes to standard error. The
program's standard output is passed through unchanged: its last line is
the JSON result. A failed build or run exits non-zero without a result.

Times in the result are normalized to a reference speed of the host,
not raw host time (see the header of bench.ml); the --trace 1 run also
reports the raw medians and the host's slowdown.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

# the first build in a fresh checkout compiles the whole library stack
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    # dune's shared build cache lives outside the checkout; keep every
    # build output inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "-j", "2", TARGET],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        print("build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
