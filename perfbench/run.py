#!/usr/bin/env python3
"""Builds and runs the bsched end-to-end benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-opt --seed 2009 --seconds 30 --trace 0

The first run configures and builds perfbench (the repository's bsched
library plus the benchmark program in perfbench/src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs only rebuild what changed. Build output goes to stderr, so the last line on
stdout is perfbench's JSON result. The exit code is perfbench's: 0 only
when every output check passed. Without the bsched sources next to this
directory there is nothing to measure, and the script exits 2.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("paper-opt", "fleet-narrow", "sweep-wide")
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = pathlib.Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print(f"perfbench: no bsched sources next to {bench_dir}", file=sys.stderr)
        return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    build = [
        ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    if (build_dir / "CMakeCache.txt").is_file():
        build = build[1:]
    for cmd in build:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 2

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
