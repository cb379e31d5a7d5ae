#!/usr/bin/env python3
"""Builds and runs the tapejuke end-to-end benchmark.

    python3 perfbench/run.py --workload paper_fig8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test

Run from the repository root. The first call configures and builds the
library and the harness into .bench_build/perfbench (a few minutes); later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the harness's JSON result. The metric names in that line
are checked against BENCHMARK.json before it is printed. README.md in this
directory describes the workloads, metrics and checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS, "--target", target],
                   check=True, stdout=sys.stderr)


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    try:
        if args.test:
            build("perfbench_test")
            sys.exit(subprocess.run(
                [os.path.join(BUILD, "perfbench_test")]).returncode)
        if not args.workload:
            fail("--workload is required")
        build("perfbench")
    except subprocess.CalledProcessError as error:
        fail("build failed: %s" % error)

    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail("harness exited with code %d: %s" % (proc.returncode, lines[-1]))
    result = json.loads(lines[-1])
    if list(result["metrics"]) != expected_names(args.trace):
        fail("metric names differ from BENCHMARK.json")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
