#!/usr/bin/env python3
"""Build and run the validator benchmark.

    python3 perfbench/run.py --workload soak|fuzz|testgen|fabric \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe with dune, then
runs it with the same arguments; its last stdout line is the result
JSON. Exits non-zero when the build fails or an output check fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        sys.stderr.write("perfbench: run from the repository root (dune-project and lib/ missing)\n")
        return 2
    # the build stays inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=900,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
