#!/usr/bin/env python3
"""Build and run the broker serving benchmark (see WORKLOADS.md).

Run from anywhere inside a source tree of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/main.exe with dune, runs it from the repository
root, and passes its output and exit code through.  The last line of
standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "perfbench/main.exe"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib", "broker"))):
        sys.stderr.write("perfbench: %s holds no broker source tree to build\n" % ROOT)
        return 2
    # keep every build product inside the tree: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./" + TARGET],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 3
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    sys.stdout.flush()
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
