#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper|scatter|compile --seed N \
        --seconds S --trace 0|1

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the checkout's library sources in RelWithDebInfo mode, as the
repository's own build does. It is configured and built into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper", "scatter", "compile")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures and builds the benchmark; returns the binary path or None."""
    steps = (
        ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", "4"],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(source_dir, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
