#!/usr/bin/env python3
"""Build the benchmark from source and run one workload of it.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It builds
perfbench/bench/main.exe with dune into .bench_build/ (the first build
compiles the libraries too), then runs the workload in its own process
with the domain count fixed, passing the arguments through. The last line
of standard output is the run's JSON result; build output goes to
standard error. The exit code is non-zero if the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench", "main.exe")


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/bench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env = dict(os.environ, MCLH_DOMAINS="1")
    env.pop("MCLH_METRICS", None)
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
