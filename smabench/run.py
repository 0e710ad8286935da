#!/usr/bin/env python3
"""Builds and runs the smadb benchmark from the root of a source tree.

    python3 smabench/run.py --workload dashboard --seed 1 --seconds 10 --trace 0
    python3 smabench/run.py --self-test

The first call configures and compiles the engine (../src) and the
benchmark into .bench_build/; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Traced runs (--trace 1) write their spans to
.bench_build/spans/<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("smabench: no engine sources at %s; run from the root of "
                 "a source tree" % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("smabench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("smabench_selftest")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("smabench")
    spans = os.path.join(BUILD, "spans",
                         "%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans,
           "--data-dir", BUILD]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
