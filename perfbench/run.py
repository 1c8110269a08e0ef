#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-ccdp --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune (inside the checkout, with the
shared dune cache off), then runs it with the same arguments. The last line
of standard output is the benchmark's JSON result. Exits non-zero, without a
result, when the sources or the build are missing or broken.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, "perfbench", "out", "cache")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"],
            env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % build.returncode)
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
