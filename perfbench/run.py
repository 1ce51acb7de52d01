#!/usr/bin/env python3
"""Builds the benchmark program (fistbench) from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream_e2e --seed 42 --seconds 10 --trace 0

The first call configures and builds perfbench/ (Release) into
.bench_build/; later calls rebuild only what changed. Build output goes
to stderr, so the last line of stdout stays fistbench's JSON result.
A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "fistbench", "-j", "4"],
        stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD_DIR, "fistbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
