#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 smabench/spread.py --workload dashboard --seeds 1-10
    python3 smabench/spread.py --seeds 1-5            # every workload

For each end-to-end metric it prints the values, their median, and the
inter-quartile distance (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound in BENCHMARK.json. A spread at or above
a third of its bound is flagged: the benchmark is not steady enough to
gate that metric. setup_s is reported but not held to its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s seed %d" %
                 (out.returncode, workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect or failed requests: %s seed %d: %s" %
                 (workload, seed, lines[-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    steady = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds_of(args.seeds):
            result = run_once(spec, w, seed, args.trace)
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print("%s seed %d: %s" % (w, seed, json.dumps(
                {k: round(v[-1], 4) for k, v in values.items()})),
                flush=True)
        print("\n%s:" % w)
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if spread >= bound / 3:
                    flag = "  <-- spread >= bound/3"
                    steady = False
            print("  %-26s median %12.5g  spread %6.3f%s%s" % (
                m["name"], med, spread,
                "" if bound is None else "  bound %.3f" % bound, flag))
        print(flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
