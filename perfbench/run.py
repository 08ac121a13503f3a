#!/usr/bin/env python3
"""Builds and runs the wall-clock checkpoint benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload train_pec --seed 1 --seconds 20 --trace 0

Builds perfbench/ (a CMake package that compiles the library from src/)
into .bench_build/perfbench, runs one workload with its temp stores under
.bench_build/, and forwards the benchmark's output. The last line of stdout
is the JSON result; build output goes to stderr. Exits non-zero when the
build fails or any checked operation failed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_pec", "cluster_dedup", "cluster_hot_delta")


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal run (one repetition) for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one stored blob before the first restore")
    args = parser.parse_args()

    work = os.path.join(os.getcwd(), ".bench_build")
    build_dir = os.path.join(work, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(work, "run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        sys.stdout.flush()
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
