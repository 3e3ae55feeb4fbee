#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: discrete_flash_p2p, cohort_cliff_10m (see perfbench/NOTES.md).
The first run configures and builds a Release tree in .bench_build/ (the
library from src/ plus the perfbench binary); later runs only rebuild what
changed. Build output goes to standard error; the
last line of standard output is the binary's JSON result. Exits non-zero
without a result when the build or any run fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("discrete_flash_p2p", "cohort_cliff_10m")


def build(root):
    bench_src = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        subprocess.run(
            ["cmake", "-S", bench_src, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", root, "--out", os.path.join(root, BUILD_DIR, "perfbench_out")]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
