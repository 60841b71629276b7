#!/usr/bin/env python3
"""Builds the simulator benchmark and runs it.

Usage, from the repository root:

    python3 simbench/run.py --workload fig7_sweep --seed 1 --seconds 30 --trace 0

Configures and builds simbench/ (the simulator sources under src/ plus the
benchmark program) with CMake into .bench_build/simbench, then runs the
benchmark binary with the given arguments. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "simbench")
BINARY = os.path.join(BUILD_DIR, "simbench")


def build():
    """Configures (once) and builds the benchmark; returns the exit code."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            return code
    return 0


def main():
    code = build()
    if code != 0:
        print("simbench: build failed", file=sys.stderr)
        return code
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
